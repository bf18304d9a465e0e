// Failover: the availability story of the paper, live. A primary+mirror
// pair serves telecom traffic; the primary is killed mid-load; the
// mirror takes over almost instantly as a transient primary (logging to
// its own disk); the failed node restarts and rejoins — always as
// mirror — and the pair converges again.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	rodain "repro"
)

func main() {
	opts := rodain.Options{
		Workers:         2,
		HeartbeatEvery:  25 * time.Millisecond,
		HeartbeatMisses: 4,
	}

	primary, err := rodain.OpenPrimary(opts, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	if err := primary.Populate(5000, func(i int) (rodain.ObjectID, []byte) {
		return rodain.ObjectID(i), []byte(fmt.Sprintf("entry-%d-v1", i))
	}); err != nil {
		log.Fatal(err)
	}

	mirror, err := rodain.OpenMirror(opts, primary.ReplAddr(), "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mirror.Close()
	waitEvent(primary, rodain.EventMirrorAttached)
	fmt.Println("pair is up: primary serving, mirror hot")

	// Committed work before the failure.
	for i := 0; i < 100; i++ {
		mustUpdate(primary, rodain.ObjectID(i), fmt.Sprintf("entry-%d-v2", i))
	}
	fmt.Println("committed 100 updates in normal (shipping) mode")

	// --- failure ---------------------------------------------------------
	fmt.Println("\n*** killing the primary ***")
	crash := time.Now()
	primary.Crash()

	waitEvent(mirror, rodain.EventTakeover)
	fmt.Printf("mirror took over after %v (watchdog detection + promotion)\n",
		time.Since(crash).Round(10*time.Microsecond))

	// The promoted node serves immediately, with every committed update.
	var v []byte
	err = mirror.View(100*time.Millisecond, func(tx *rodain.Tx) error {
		var rerr error
		v, rerr = tx.Read(42)
		return rerr
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read after takeover: object 42 = %q (committed data survived)\n", v)
	if string(v) != "entry-42-v2" {
		log.Fatal("committed update lost!")
	}
	for i := 100; i < 150; i++ {
		mustUpdate(mirror, rodain.ObjectID(i), fmt.Sprintf("entry-%d-v3", i))
	}
	fmt.Printf("committed 50 more updates in transient mode [log mode=%s]\n", mirror.Stats().LogMode)

	// --- rejoin ----------------------------------------------------------
	fmt.Println("\n*** restarting the failed node — it always rejoins as mirror ***")
	rejoined, err := rodain.OpenMirror(opts, mirror.ReplAddr(), "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer rejoined.Close()
	waitEvent(mirror, rodain.EventMirrorAttached)
	fmt.Printf("rejoined as mirror; server back in normal mode [log mode=%s]\n", mirror.Stats().LogMode)

	// Traffic ships to the new mirror again; verify convergence.
	for i := 150; i < 200; i++ {
		mustUpdate(mirror, rodain.ObjectID(i), fmt.Sprintf("entry-%d-v4", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for rejoined.Len() != mirror.Len() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	v2, _ := rejoined.Get(120)
	fmt.Printf("rejoined mirror sees object 120 = %q (history transferred + live shipping)\n", v2)
	if string(v2) != "entry-120-v3" {
		log.Fatal("state transfer missed transient-mode commits")
	}
	fmt.Println("\nthe database service never moved off a live node; only the failed node changed roles")
}

func mustUpdate(db *rodain.DB, id rodain.ObjectID, value string) {
	err := db.Update(150*time.Millisecond, func(tx *rodain.Tx) error {
		if _, err := tx.Read(id); err != nil {
			return err
		}
		return tx.Write(id, []byte(value))
	})
	if err != nil && !errors.Is(err, rodain.ErrDeadline) {
		log.Fatalf("update %d: %v", id, err)
	}
}

func waitEvent(db *rodain.DB, kind rodain.EventKind) {
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-db.Events():
			if ev.Kind == kind {
				return
			}
		case <-deadline:
			log.Fatalf("event %v never arrived", kind)
		}
	}
}
