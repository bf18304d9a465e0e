package main

import (
	"fmt"
	"path/filepath"
	"testing"

	rodain "repro"
	"repro/internal/telecom"
)

// TestPopulateSurvivesRestart: the -db population is logged, so a node
// that crashes before any checkpoint and reopens on its log holds every
// entry.
func TestPopulateSurvivesRestart(t *testing.T) {
	const n = 2500
	opts := rodain.Options{LogPath: filepath.Join(t.TempDir(), "node.wal")}
	db, err := rodain.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := populate(db, n); err != nil {
		t.Fatal(err)
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
		v, _ := db.Get(rodain.ObjectID(i))
		if e, err := telecom.Decode(v); err != nil || e.Routed != fmt.Sprintf("+35850%07d", i) {
			t.Fatalf("entry %d = %q (%v)", i, v, err)
		}
	}
}
