package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	rodain "repro"
	"repro/internal/logstore"
	"repro/internal/telecom"
)

// TestPopulateSurvivesRestart: the -db population is logged, so a node
// that crashes after it and reopens on its storage holds every entry: on
// one log file, on a segmented log that rolls during the populate, and
// on a segmented log whose checkpoint cycle fires and truncates the log
// mid-populate.
func TestPopulateSurvivesRestart(t *testing.T) {
	const n = 2500
	for _, tc := range []struct {
		name string
		opts func(dir string) rodain.Options
	}{
		{"file", func(dir string) rodain.Options {
			return rodain.Options{LogPath: filepath.Join(dir, "node.wal")}
		}},
		{"segments", func(dir string) rodain.Options {
			return rodain.Options{LogPath: filepath.Join(dir, "log"), LogSegmentBytes: 4096}
		}},
		{"segments+checkpoint", func(dir string) rodain.Options {
			return rodain.Options{
				LogPath:            filepath.Join(dir, "log"),
				LogSegmentBytes:    4096,
				CheckpointDir:      filepath.Join(dir, "ckpt"),
				CheckpointLogBytes: 1,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts(t.TempDir())
			db, err := rodain.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			entry, truncated := telecom.RouteEntry, false
			if opts.CheckpointDir != "" {
				// The last batch waits, in its last entry, for a
				// checkpoint of the batches before it to land and
				// unlink the first segment.
				entry = func(i int) (rodain.ObjectID, []byte) {
					if i == n-1 {
						truncated = waitFor(func() bool {
							_, ckpt := os.Stat(filepath.Join(opts.CheckpointDir, "checkpoint.ckpt"))
							_, seg := os.Stat(filepath.Join(opts.LogPath, "wal-00000001.seg"))
							return ckpt == nil && os.IsNotExist(seg)
						})
					}
					return telecom.RouteEntry(i)
				}
			}
			if err := db.Populate(n, entry); err != nil {
				t.Fatal(err)
			}
			if opts.CheckpointDir != "" && !truncated {
				t.Fatal("no checkpoint truncated the log during the populate")
			}
			if opts.LogSegmentBytes > 0 {
				if segs, err := logstore.ListSegments(opts.LogPath); err != nil || len(segs) < 2 {
					t.Fatalf("log did not roll during the populate: %v %v", segs, err)
				}
			}
			db.Crash()
			db.Close()

			db, err = rodain.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.Len() != n {
				t.Fatalf("reopened node holds %d entries, want %d", db.Len(), n)
			}
			for i := 0; i < n; i++ {
				id, want := telecom.RouteEntry(i)
				if v, _ := db.Get(id); !bytes.Equal(v, want) {
					t.Fatalf("entry %d = %q, want %q", i, v, want)
				}
			}
		})
	}
}

// waitFor polls cond for up to five seconds and reports whether it held.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return false
}
