// Recovery: what the logs buy you when nodes die. Demonstrates
//
//  1. checkpoint + log-tail recovery after a crash, which reopening the
//     node on the same options performs (no data loss in transient mode,
//     where commits sync the disk; the program exits non-zero if a
//     commit is lost), and
//  2. the paper's data-loss window: "the data storing to the disk is not
//     synchronized with the transaction commits" — a relaxed-durability
//     node that crashes loses the committed-but-unflushed tail, which
//     the paper accepts for telecom's temporal data.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	rodain "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "rodain-recovery")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	part1(dir)
	part2()
}

// part1: disk-durable transient mode — everything committed survives,
// and reopening the node on the same options is all a restart takes.
func part1(dir string) {
	fmt.Println("— part 1: transient mode with true log writes —")
	opts := rodain.Options{
		LogPath:       filepath.Join(dir, "node.wal"),
		CheckpointDir: filepath.Join(dir, "ckpt"),
		Durability:    rodain.DurDisk,
	}
	db := open(opts, 1000)
	// The checkpoint covers the populated table; the log keeps only the
	// updates after it.
	if _, err := db.CheckpointToDir(opts.CheckpointDir); err != nil {
		log.Fatal(err)
	}
	update(db, 200, "committed")
	fmt.Println("populated and checkpointed 1000 objects, then committed 200 updates, log synced per commit")
	db.Crash()
	fmt.Println("*** node crashed ***")

	// Open replays the checkpoint, then the log tail over it.
	db = open(opts, 0)
	for i := 0; i < 1000; i++ {
		want := "initial"
		if i < 200 {
			want = fmt.Sprintf("committed-%d", i)
		}
		if v, _ := db.Get(rodain.ObjectID(i)); string(v) != want {
			log.Fatalf("commit lost: object %d = %q after recovery, want %q", i, v, want)
		}
	}
	fmt.Printf("reopened: %d objects, every commit present — nothing was lost\n", db.Len())

	// The reopened node continues the recovered history, so what it
	// commits now survives the next restart too.
	update(db, 1, "after-restart")
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	db = open(opts, 0)
	defer db.Close()
	if v, _ := db.Get(0); string(v) != "after-restart-0" {
		log.Fatalf("commit lost: object 0 = %q after a second restart", v)
	}
	fmt.Print("a commit made after the restart survives the next one\n\n")
}

// part2: relaxed durability — fast commits, bounded loss window.
func part2() {
	fmt.Println("— part 2: the data-loss window of asynchronous disk writes —")
	db := open(rodain.Options{Durability: rodain.DurRelaxed}, 200)
	start := time.Now()
	update(db, 200, "relaxed")
	fmt.Printf("200 relaxed commits in %v — no disk wait on the commit path\n",
		time.Since(start).Round(time.Millisecond))
	db.Crash()
	fmt.Println("*** node crashed: commits since the last flush are gone ***")
	fmt.Println("the paper's position: in two-node operation the mirror IS the stable storage,")
	fmt.Println("so this window only opens if both nodes fail inside it; for telecom's temporal")
	fmt.Println("data (it will be updated again soon) that residual risk is acceptable.")
}

// open opens a node on opts and populates objects 0..n-1 with "initial".
func open(opts rodain.Options, n int) *rodain.DB {
	db, err := rodain.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Populate(n, func(i int) (rodain.ObjectID, []byte) {
		return rodain.ObjectID(i), []byte("initial")
	}); err != nil {
		log.Fatal(err)
	}
	return db
}

// update commits n single-write transactions, transaction i writing
// "<prefix>-i" to object i.
func update(db *rodain.DB, n int, prefix string) {
	for i := 0; i < n; i++ {
		if err := db.Update(150*time.Millisecond, func(tx *rodain.Tx) error {
			return tx.Write(rodain.ObjectID(i), []byte(fmt.Sprintf("%s-%d", prefix, i)))
		}); err != nil {
			log.Fatal(err)
		}
	}
}
