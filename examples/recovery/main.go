// Recovery: what the logs buy you when nodes die. Demonstrates
//
//  1. checkpoint + log-tail recovery after a crash (no data loss in
//     transient mode, where commits sync the disk), and
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
	part2(dir)
}

// part1: disk-durable transient mode — everything committed survives.
func part1(dir string) {
	fmt.Println("— part 1: transient mode with true log writes —")
	logPath := filepath.Join(dir, "node.wal")
	db, err := rodain.Open(rodain.Options{LogPath: logPath, Durability: rodain.DurDisk})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		db.Load(rodain.ObjectID(i), []byte("initial"))
	}
	for i := 0; i < 200; i++ {
		if err := db.Update(150*time.Millisecond, func(tx *rodain.Tx) error {
			return tx.Write(rodain.ObjectID(i), []byte(fmt.Sprintf("committed-%d", i)))
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("committed 200 updates, log synced per commit")
	db.Crash()
	fmt.Println("*** node crashed ***")

	// A fresh node replays the log.
	recovered, err := rodain.Open(rodain.Options{Durability: rodain.DurDisk})
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	for i := 0; i < 1000; i++ {
		recovered.Load(rodain.ObjectID(i), []byte("initial"))
	}
	f, err := os.Open(logPath)
	if err != nil {
		log.Fatal(err)
	}
	st, err := recovered.Recover(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed the log in a single pass: %d transactions, %d writes, %d uncommitted discarded\n",
		st.Applied, st.WritesApplied, st.Discarded)
	v, _ := recovered.Get(199)
	fmt.Printf("object 199 after recovery: %q — nothing was lost\n\n", v)
	if string(v) != "committed-199" {
		log.Fatal("disk-durable commit lost!")
	}
}

// part2: relaxed durability — fast commits, bounded loss window.
func part2(dir string) {
	fmt.Println("— part 2: the data-loss window of asynchronous disk writes —")
	db, err := rodain.Open(rodain.Options{Durability: rodain.DurRelaxed})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Load(rodain.ObjectID(i), []byte("initial"))
	}
	start := time.Now()
	for i := 0; i < 200; i++ {
		if err := db.Update(150*time.Millisecond, func(tx *rodain.Tx) error {
			return tx.Write(rodain.ObjectID(i%100), []byte("relaxed"))
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("200 relaxed commits in %v — no disk wait on the commit path\n",
		time.Since(start).Round(time.Millisecond))
	db.Crash()
	fmt.Println("*** node crashed: commits since the last flush are gone ***")
	fmt.Println("the paper's position: in two-node operation the mirror IS the stable storage,")
	fmt.Println("so this window only opens if both nodes fail inside it; for telecom's temporal")
	fmt.Println("data (it will be updated again soon) that residual risk is acceptable.")
}
