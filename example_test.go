package rodain_test

import (
	"errors"
	"fmt"
	"time"

	rodain "repro"
)

// The basic lifecycle: open an embedded node, load data, run deadline-
// bound transactions.
func Example() {
	db, err := rodain.Open(rodain.Options{})
	if err != nil {
		panic(err)
	}
	defer db.Close()

	// Populate loads a table through logged transactions, so it is as
	// durable as any update; here, a table of one routing entry.
	err = db.Populate(1, func(int) (rodain.ObjectID, []byte) {
		return 800100200, []byte("+358501234567")
	})
	if err != nil {
		panic(err)
	}

	// An update transaction: read, modify, write — all deferred until
	// validation accepts the transaction.
	err = db.Update(50*time.Millisecond, func(tx *rodain.Tx) error {
		v, err := tx.Read(800100200)
		if err != nil {
			return err
		}
		return tx.Write(800100200, append(v, " (rerouted)"...))
	})
	if err != nil {
		panic(err)
	}

	v, _ := db.Get(800100200)
	fmt.Println(string(v))
	// Output: +358501234567 (rerouted)
}

// Firm deadlines abort rather than run late.
func ExampleDB_Update_deadline() {
	db, _ := rodain.Open(rodain.Options{Durability: rodain.DurNone})
	defer db.Close()
	db.Populate(1, func(int) (rodain.ObjectID, []byte) { return 1, []byte("x") })

	err := db.Update(time.Millisecond, func(tx *rodain.Tx) error {
		time.Sleep(10 * time.Millisecond) // blows the 1 ms budget
		_, err := tx.Read(1)
		return err
	})
	fmt.Println(errors.Is(err, rodain.ErrDeadline))
	// Output: true
}

// Non-real-time transactions have no deadline and run in the
// scheduler's reserved share.
func ExampleDB_Exec() {
	db, _ := rodain.Open(rodain.Options{Durability: rodain.DurNone})
	defer db.Close()
	db.Populate(1, func(int) (rodain.ObjectID, []byte) { return 1, []byte("value") })

	err := db.Exec(rodain.NonRealTime, 0, 0, func(tx *rodain.Tx) error {
		_, err := tx.Read(1)
		return err
	})
	fmt.Println(err)
	// Output: <nil>
}

// A replicated pair on loopback: the primary's commits wait for the
// mirror's acknowledgment instead of a disk write.
func ExampleOpenPrimary() {
	primary, err := rodain.OpenPrimary(rodain.Options{}, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer primary.Close()
	primary.Populate(1, func(int) (rodain.ObjectID, []byte) { return 1, []byte("replicated") })

	mirror, err := rodain.OpenMirror(rodain.Options{}, primary.ReplAddr(), "")
	if err != nil {
		panic(err)
	}
	defer mirror.Close()

	// Wait for the state transfer to finish.
	for ev := range primary.Events() {
		if ev.Kind == rodain.EventMirrorAttached {
			break
		}
	}
	err = primary.Update(50*time.Millisecond, func(tx *rodain.Tx) error {
		return tx.Write(1, []byte("shipped to the mirror"))
	})
	fmt.Println(err, primary.Stats().LogMode)
	// Output: <nil> ship
}
