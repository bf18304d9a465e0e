// Command rodain-logdump is the dry run of opening a node on a stored
// log. It makes the log opener's own walk (logstore.Read, which writes
// nothing): every group the opener would keep goes through a Replayer
// into a scratch store and is tallied. It prints each sealed segment,
// the record tally, the replay summary and the verdict: the bytes Open
// keeps, and where it would cut the active file and why. A damaged sealed
// segment, which Open refuses, is the same error here, with a non-zero
// exit. A directory is read as a segmented log, any other path as a
// single-file log. A checkpoint file is a log of one group, so it reads
// like any log; for each checkpoint group it meets, the dump prints its
// serial, stripe count and min and max watermark.
//
// The store holds the log alone: no CheckpointDir image is installed
// first. The verdict does not depend on one, because a stored log's
// Replayer accepts and rejects the same groups with or without an image.
//
//	rodain-logdump primary.wal
//	rodain-logdump -v primary.wal                    # every record too
//	rodain-logdump ckptdir/checkpoint.ckpt           # a checkpoint
//	rodain-logdump logdir                            # segment directory
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/logstore"
	"repro/internal/store"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rodain-logdump:", err)
		os.Exit(1)
	}
}

// run dumps the log args name to stdout; an error is a bad command line,
// an unreadable log or a log that Open refuses.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rodain-logdump", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print every record")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: rodain-logdump [-v] <logfile|segmentdir|checkpoint>")
	}
	db := store.New()
	rp := wal.NewReplayer(db)
	var t tally
	start := time.Now()
	c, err := logstore.Read(fs.Arg(0), func(g []byte) error {
		if err := rp.Add(g); err != nil {
			return err
		}
		t.add(stdout, g, *verbose)
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	for _, seg := range c.Sealed {
		fmt.Fprintf(stdout, "segment %s: %d bytes, sealed, max serial %d\n", seg.Name, seg.Bytes, seg.MaxSerial)
	}
	fmt.Fprintf(stdout, "%d records (%d bytes): %d writes, %d deletes, %d commits, max serial %d\n",
		t.records, t.bytes, t.writes, t.deletes, t.commits, c.MaxSerial)
	st := rp.Stats()
	fmt.Fprintf(stdout, "replay: %d transactions applied, %d writes, last serial %d, max commit ts %d, in %v\n",
		st.Applied, st.WritesApplied, st.LastSerial, st.MaxCommitTS, elapsed.Round(time.Microsecond))
	fmt.Fprintf(stdout, "database: %d objects, checksum %08x\n", db.Len(), db.Checksum())
	active := filepath.Join(c.Dir, c.Active)
	switch {
	case c.Active == "":
		fmt.Fprintln(stdout, "verdict: no log file; Open starts an empty log")
	case c.Size > c.Kept:
		fmt.Fprintf(stdout, "verdict: Open keeps %d bytes of %s and cuts it at offset %d: %d bytes go to %s.cut-%d (%v)\n",
			c.Kept, active, c.Kept, c.Size-c.Kept, active, c.Kept, c.Stop)
	default:
		fmt.Fprintf(stdout, "verdict: Open keeps all %d bytes of %s and cuts nothing\n", c.Kept, active)
	}
	return nil
}

// tally counts the records of the groups a log keeps.
type tally struct {
	records, writes, deletes, commits, bytes int
}

// add counts the records of the checked group g, printing each if
// verbose and every checkpoint group's watermarks.
func (t *tally) add(w io.Writer, g []byte, verbose bool) {
	for len(g) > 0 {
		rec, n, _ := wal.DecodeNext(g)
		g = g[n:]
		t.records++
		t.bytes += n
		switch rec.Type {
		case wal.TypeWrite:
			t.writes++
		case wal.TypeDelete:
			t.deletes++
		case wal.TypeCommit:
			t.commits++
			if wm := wal.CheckpointWatermarks(rec); wm != nil {
				fmt.Fprintf(w, "checkpoint at serial %d: %d stripes, watermarks min %d max %d (log below %d is redundant)\n",
					rec.SerialOrder, wm.Stripes(), wm.Min(), wm.Max(), wm.Min())
			}
		}
		if verbose {
			fmt.Fprintln(w, rec)
		}
	}
}
