// Command rodaind runs one RODAIN database node: the primary of a pair,
// its hot stand-by mirror, or a standalone single node.
//
// A primary:
//
//	rodaind -role primary -listen :7100 -repl :7000 -db 30000 -log primary.wal
//
// Its mirror (takes over and serves on -listen if the primary dies):
//
//	rodaind -role mirror -peer primaryhost:7000 -repl :7000 -listen :7100 -log mirror.wal
//
// Clients speak the line protocol of internal/service on -listen
// (GET/SET/TRANSLATE/REROUTE/STATS).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	rodain "repro"
	"repro/internal/logstore"
	"repro/internal/service"
	"repro/internal/telecom"
)

func main() {
	var (
		role       = flag.String("role", "single", "node role: single, primary, or mirror")
		listen     = flag.String("listen", "127.0.0.1:7100", "client service address")
		repl       = flag.String("repl", "", "replication listen address (primary; mirror after takeover)")
		peer       = flag.String("peer", "", "primary replication address (mirror role)")
		dbSize     = flag.Int("db", 30000, "number-translation entries to populate")
		logPath    = flag.String("log", "", "log file (empty: in-memory)")
		durability = flag.String("durability", "disk", "single-node commit path: disk, relaxed, none")
		protocol   = flag.String("occ", "dati", "concurrency control: dati, ti, da, bc")
		workers    = flag.Int("workers", 2, "executor slots (the node's CPUs)")
		recover_   = flag.String("recover", "", "replay this log file or segment directory into the database before serving")
		ckptDir    = flag.String("checkpoint-dir", "", "write periodic checkpoints here (and truncate the log)")
		ckptEvery  = flag.Duration("checkpoint-every", 5*time.Minute, "checkpoint interval when -checkpoint-dir is set (0 = off)")
		ckptBytes  = flag.Uint64("checkpoint-bytes", 0, "also checkpoint after this much log growth (0 = off)")
		segBytes   = flag.Int64("log-segment-bytes", 0, "roll the log into -log/<segments> at this size so checkpoints drop whole segments (0 = one file that never rolls)")
		maxCohort  = flag.Int("max-cohort", 0, "max transactions per group-commit cohort (0 = default 64, 1 = per-commit sync)")
		pipeDepth  = flag.Int("pipeline-depth", service.DefaultPipelineDepth, "per-connection request window (1 = no pipelining)")
		idleConn   = flag.Duration("idle-timeout", 2*time.Minute, "disconnect clients idle this long (0 = never)")
	)
	flag.Parse()

	opts := rodain.Options{
		Name:               fmt.Sprintf("rodaind-%s", *role),
		LogPath:            *logPath,
		Protocol:           *protocol,
		Workers:            *workers,
		MaxCohort:          *maxCohort,
		LogSegmentBytes:    *segBytes,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		CheckpointLogBytes: *ckptBytes,
	}
	switch *durability {
	case "disk":
		opts.Durability = rodain.DurDisk
	case "relaxed":
		opts.Durability = rodain.DurRelaxed
	case "none":
		opts.Durability = rodain.DurNone
	default:
		log.Fatalf("unknown durability %q", *durability)
	}

	var (
		db  *rodain.DB
		err error
	)
	switch *role {
	case "single":
		db, err = rodain.Open(opts)
	case "primary":
		if *repl == "" {
			log.Fatal("-role primary needs -repl")
		}
		db, err = rodain.OpenPrimary(opts, *repl)
	case "mirror":
		if *peer == "" {
			log.Fatal("-role mirror needs -peer")
		}
		db, err = rodain.OpenMirror(opts, *peer, *repl)
	default:
		log.Fatalf("unknown role %q", *role)
	}
	if err != nil {
		log.Fatalf("start: %v", err)
	}
	defer db.Close()

	if *ckptDir != "" {
		// Restore checkpoint + log tail as one pass: the tail replays
		// over the snapshot per stripe watermark, so ordering is handled
		// inside RecoverFromDir instead of here.
		var tail io.Reader
		if *recover_ != "" {
			rc, err := openLogReader(*recover_)
			if err != nil {
				log.Fatalf("recover: %v", err)
			}
			defer rc.Close()
			tail = rc
		}
		start := time.Now()
		if st, err := db.RecoverFromDir(*ckptDir, tail); err != nil {
			log.Fatalf("checkpoint recovery: %v", err)
		} else if st.LastSerial > 0 {
			log.Printf("restored checkpoint+tail to serial %d (%d txns replayed, %d writes skipped) in %v",
				st.LastSerial, st.Applied, st.WritesSkipped, time.Since(start).Round(time.Millisecond))
		}
	} else if *recover_ != "" {
		if err := recoverInto(db, *recover_); err != nil {
			log.Fatalf("recover: %v", err)
		}
	}
	if *role != "mirror" && db.Len() == 0 && *dbSize > 0 {
		log.Printf("populating %d number-translation entries", *dbSize)
		for i := 0; i < *dbSize; i++ {
			db.Load(rodain.ObjectID(i), telecom.Encode(&telecom.Entry{
				Routed:  fmt.Sprintf("+35850%07d", i),
				Weight:  100,
				Active:  true,
				Version: 1,
			}))
		}
	}

	srv := service.NewServerConfig(db, service.Config{
		PipelineDepth: *pipeDepth,
		IdleTimeout:   *idleConn,
	})
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("service listen: %v", err)
	}
	defer srv.Close()
	log.Printf("node %s serving clients on %s (repl %s)", *role, addr, db.ReplAddr())

	go func() {
		for ev := range db.Events() {
			log.Printf("event: %v %s", ev.Kind, ev.Detail)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down; final stats: %+v", db.Stats().Outcome)
}

// openLogReader opens a stored log for replay: a single log file, or a
// directory of segments written by -log-segment-bytes (read in order).
func openLogReader(path string) (io.ReadCloser, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		return logstore.OpenSegmentsReader(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Buffered: the replay decodes one record at a time and would
	// otherwise pay a read syscall per record.
	return struct {
		io.Reader
		io.Closer
	}{bufio.NewReaderSize(f, 256<<10), f}, nil
}

func recoverInto(db *rodain.DB, path string) error {
	r, err := openLogReader(path)
	if err != nil {
		return err
	}
	defer r.Close()
	start := time.Now()
	st, err := db.Recover(r)
	if err != nil {
		return err
	}
	log.Printf("recovered %d transactions (%d writes, truncated=%v) in %v",
		st.Applied, st.WritesApplied, st.Truncated, time.Since(start).Round(time.Millisecond))
	return nil
}
