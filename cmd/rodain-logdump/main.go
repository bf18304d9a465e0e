// Command rodain-logdump inspects RODAIN log artifacts: it reads a log a
// whole group at a time, as replay does, prints records, summarizes them
// and whether the log ends inside a group, dry-runs the recovery pass,
// and walks segmented log directories in order. A
// checkpoint file is a log of one group, so it reads like any log; for
// each checkpoint group it meets, the dump prints its serial, stripe
// count and min and max watermark.
//
//	rodain-logdump primary.wal
//	rodain-logdump -recover primary.wal              # replay as a node would
//	rodain-logdump ckptdir/checkpoint.ckpt           # a checkpoint
//	rodain-logdump logdir                            # segment directory
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/wal"
)

func main() {
	var (
		verbose  = flag.Bool("v", false, "print every record")
		recover_ = flag.Bool("recover", false, "dry-run the recovery pass and report the resulting database")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rodain-logdump [-v] [-recover] <logfile|segmentdir|checkpoint>")
		os.Exit(2)
	}
	path := flag.Arg(0)

	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}

	if *recover_ {
		r, err := logstore.OpenSegmentsReader(path)
		if err != nil {
			log.Fatal(err)
		}
		defer r.Close()
		dryRecover(r)
		return
	}

	if fi.IsDir() {
		dumpSegments(path, *verbose)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	sum := &summary{}
	sum.scan(f, *verbose)
	sum.print()
}

// dryRecover replays the log into a scratch store the way a recovering
// node does, and times it.
func dryRecover(r io.Reader) {
	db := store.New()
	start := time.Now()
	st, err := wal.Recover(r, db)
	elapsed := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d transactions applied, %d writes, ended inside a group: %v\n",
		st.Applied, st.WritesApplied, st.Discarded > 0)
	fmt.Printf("          last serial %d, max commit ts %d, truncated tail: %v\n",
		st.LastSerial, st.MaxCommitTS, st.Truncated)
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(st.Applied) / s
	}
	fmt.Printf("          replayed in %v (%.0f txn/s)\n", elapsed.Round(time.Microsecond), rate)
	fmt.Printf("database: %d objects, checksum %08x\n", db.Len(), db.Checksum())
}

// summary tallies one record stream.
type summary struct {
	records, writes, deletes, commits int
	bytesTotal                        int
	maxSerial                         uint64
	truncated                         bool
	open                              bool // the last group has no commit record
}

// scan reads r a whole group at a time, as replay does, and tallies the
// records of each group: a torn or damaged tail ends the scan, and the
// records of the group it cuts that passed their checks are tallied too.
func (s *summary) scan(r io.Reader, verbose bool) {
	br := bufio.NewReaderSize(r, 256<<10)
	var g []byte
	for {
		var err error
		g, err = wal.ReadGroup(br, g)
		s.tally(g, verbose)
		s.open = err != nil && len(g) > 0
		if err != nil {
			switch {
			case err == io.EOF:
			case err == io.ErrUnexpectedEOF || errors.Is(err, wal.ErrCorrupt):
				s.truncated = true
				fmt.Printf("-- truncated/corrupt tail after %d records --\n", s.records)
			default:
				log.Fatal(err)
			}
			return
		}
	}
}

// tally counts the records of g, whole records that passed their checks.
func (s *summary) tally(g []byte, verbose bool) {
	for len(g) > 0 {
		rec, n, err := wal.DecodeNext(g)
		if err != nil {
			log.Fatal(err)
		}
		g = g[n:]
		s.records++
		s.bytesTotal += n
		switch rec.Type {
		case wal.TypeWrite:
			s.writes++
		case wal.TypeDelete:
			s.deletes++
		case wal.TypeCommit:
			s.commits++
			if rec.SerialOrder > s.maxSerial {
				s.maxSerial = rec.SerialOrder
			}
			if wm := wal.CheckpointWatermarks(rec); wm != nil {
				fmt.Printf("checkpoint at serial %d: %d stripes, watermarks min %d max %d (log below %d is redundant)\n",
					rec.SerialOrder, wm.Stripes(), wm.Min(), wm.Max(), wm.Min())
			}
		}
		if verbose {
			fmt.Println(rec)
		}
	}
}

func (s *summary) print() {
	fmt.Printf("%d records (%d bytes): %d writes, %d deletes, %d commits\n",
		s.records, s.bytesTotal, s.writes, s.deletes, s.commits)
	fmt.Printf("ended inside a group: %v\n", s.open)
}

// dumpSegments walks a segmented log directory in log order, timing and
// summarizing each segment, then prints stream totals.
func dumpSegments(dir string, verbose bool) {
	names, err := logstore.ListSegments(dir)
	if err != nil {
		log.Fatal(err)
	}
	if len(names) == 0 {
		fmt.Printf("no segments in %s\n", dir)
		return
	}
	total := &summary{}
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			log.Fatal(err)
		}
		before := *total
		start := time.Now()
		total.scan(f, verbose)
		elapsed := time.Since(start)
		f.Close()
		fmt.Printf("segment %s: %d records (%d bytes), %d commits, max serial %d, scanned in %v\n",
			name, total.records-before.records, total.bytesTotal-before.bytesTotal,
			total.commits-before.commits, total.maxSerial, elapsed.Round(time.Microsecond))
	}
	fmt.Printf("-- %d segments --\n", len(names))
	total.print()
}
