// Number translation: the paper's motivating telecom workload on a live
// primary + hot-stand-by pair over loopback TCP. It shows the paper's
// core effect — with the mirror attached, the disk leaves the commit
// critical path and commit waits drop from disk latency to a network
// round trip.
package main

import (
	"fmt"
	"log"
	"time"

	rodain "repro"
	"repro/internal/telecom"
)

const numbers = 20000

func main() {
	// The simulated 8 ms log-disk latency stands in for the paper era's
	// disk; modern storage would hide the effect being demonstrated.
	opts := rodain.Options{Workers: 2, SimulatedDiskLatency: 8 * time.Millisecond}

	primary, err := rodain.OpenPrimary(opts, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()

	// Provision the number-translation database: 0800 service numbers
	// mapped to routing entries, through logged batches of writes.
	if err := primary.Populate(numbers, telecom.RouteEntry); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provisioned %d service numbers\n", numbers)

	// Phase 1: single node — every update commit waits for the disk.
	runLoad(primary, "transient mode (single node, disk on the commit path)")

	// Phase 2: attach the hot stand-by; commits now wait only for the
	// mirror's acknowledgment.
	mirror, err := rodain.OpenMirror(opts, primary.ReplAddr(), "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mirror.Close()
	waitEvent(primary, rodain.EventMirrorAttached)
	fmt.Println("\nmirror attached — log shipping active")
	runLoad(primary, "normal mode (logs shipped to the mirror)")

	fmt.Println("\nthe update-commit drop is the paper's point: one message round trip replaces one disk write")
}

// runLoad performs a short burst of translate + reroute transactions and
// prints the commit-wait statistics.
func runLoad(db *rodain.DB, label string) {
	const n = 200
	before := db.Stats()
	start := time.Now()
	var updateTime time.Duration
	updates := 0
	for i := 0; i < n; i++ {
		id := rodain.ObjectID(i % numbers)
		var err error
		if i%5 == 0 { // update service provision
			t0 := time.Now()
			updates++
			err = db.Update(150*time.Millisecond, func(tx *rodain.Tx) error {
				v, err := tx.Read(id)
				if err != nil {
					return err
				}
				old, err := telecom.Decode(v)
				if err != nil {
					return err
				}
				next := telecom.Reroute(old, fmt.Sprintf("+35840%07d", i))
				return tx.Write(id, telecom.Encode(next))
			})
			updateTime += time.Since(t0)
		} else { // read-only service provision
			err = db.View(50*time.Millisecond, func(tx *rodain.Tx) error {
				_, terr := telecom.Translate(func(id rodain.ObjectID) ([]byte, bool) {
					v, rerr := tx.Read(id)
					return v, rerr == nil
				}, id)
				return terr
			})
		}
		if err != nil {
			log.Fatalf("transaction %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	after := db.Stats()
	fmt.Printf("%s:\n", label)
	fmt.Printf("  %d transactions in %v (%.0f tps), commits %d\n",
		n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(),
		after.Outcome.Committed-before.Outcome.Committed)
	fmt.Printf("  mean update-commit latency %v [mode=%s]\n",
		(updateTime / time.Duration(updates)).Round(10*time.Microsecond), after.LogMode)
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
