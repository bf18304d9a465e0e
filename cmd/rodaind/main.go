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
// A node restarted on the same -log (and -checkpoint-dir) recovers from
// them before it serves or mirrors; rodain-logdump dry-runs that
// replay on the log and reports where the restart would cut it. The -db
// population goes through DB.Populate, logged like any update, so it
// survives a restart too.
//
// Clients speak the line protocol of internal/service on -listen
// (GET/SET/TRANSLATE/REROUTE/STATS).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	rodain "repro"
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
		logPath    = flag.String("log", "", "log file or segment directory: the node recovers from it at start, then logs to it (empty: in-memory)")
		durability = flag.String("durability", "disk", "single-node commit path: disk, relaxed, none")
		protocol   = flag.String("occ", "dati", "concurrency control: dati, ti, da, bc")
		workers    = flag.Int("workers", 2, "executor slots (the node's CPUs)")
		ckptDir    = flag.String("checkpoint-dir", "", "recover from the checkpoint here at start; write periodic checkpoints here (and truncate the log)")
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

	if *role != "mirror" && db.Len() == 0 && *dbSize > 0 {
		log.Printf("populating %d number-translation entries", *dbSize)
		if err := db.Populate(*dbSize, telecom.RouteEntry); err != nil {
			log.Fatalf("populate: %v", err)
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
