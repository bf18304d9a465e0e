// Quickstart: an embedded single-node RODAIN database — firm-deadline
// transactions over a main-memory store with a local redo log.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	rodain "repro"
)

func main() {
	db, err := rodain.Open(rodain.Options{Name: "quickstart"})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Populate the initial table through logged batches of writes, as
	// durable as any update.
	if err := db.Populate(1000, func(i int) (rodain.ObjectID, []byte) {
		return rodain.ObjectID(i), []byte(fmt.Sprintf("subscriber-%04d", i))
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("populated %d objects\n", db.Len())

	// A read-write transaction with a 50 ms firm deadline. The body may
	// be retried after a concurrency-control restart, so it must be a
	// pure function of its reads.
	err = db.Update(50*time.Millisecond, func(tx *rodain.Tx) error {
		v, err := tx.Read(42)
		if err != nil {
			return err
		}
		return tx.Write(42, append(v, []byte(" (updated)")...))
	})
	if err != nil {
		log.Fatal(err)
	}

	// A read-only view.
	var got string
	err = db.View(50*time.Millisecond, func(tx *rodain.Tx) error {
		v, err := tx.Read(42)
		got = string(v)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("object 42: %s\n", got)
	if got != "subscriber-0042 (updated)" {
		log.Fatal("committed update lost!")
	}

	// Firm deadlines are real: a transaction that cannot finish in time
	// is aborted, never late. (The body sleeps past its 1 ms budget.)
	err = db.Update(time.Millisecond, func(tx *rodain.Tx) error {
		time.Sleep(10 * time.Millisecond)
		_, err := tx.Read(1)
		return err
	})
	switch {
	case errors.Is(err, rodain.ErrDeadline):
		fmt.Println("late transaction was aborted at its firm deadline — as designed")
	case err == nil:
		fmt.Println("unexpected: late transaction committed")
	default:
		fmt.Println("aborted:", err)
	}

	// Non-real-time work runs in a reserved share and has no deadline.
	err = db.Exec(rodain.NonRealTime, 0, 0, func(tx *rodain.Tx) error {
		_, err := tx.Read(1)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	s := db.Stats()
	fmt.Printf("stats: %d submitted, %d committed, %d missed, mean response %v\n",
		s.Outcome.Submitted, s.Outcome.Committed, s.Outcome.Missed, s.MeanResponse)
}
