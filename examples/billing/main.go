// Billing: fixed-record subscriber profiles under concurrent
// update pressure. Many goroutines charge the same prepaid subscribers
// at once; optimistic concurrency control restarts the losers and the
// books still balance exactly — with every commit replicated to a hot
// stand-by.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	rodain "repro"
	"repro/internal/telecom"
)

const (
	subscribers = 3 // few subscribers → real contention
	workers     = 8
	chargesEach = 50
	chargeCents = 25
)

func main() {
	opts := rodain.Options{Workers: 4, MaxRestarts: 100}
	primary, err := rodain.OpenPrimary(opts, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer primary.Close()
	mirror, err := rodain.OpenMirror(opts, primary.ReplAddr(), "")
	if err != nil {
		log.Fatal(err)
	}
	defer mirror.Close()
	for ev := range primary.Events() {
		if ev.Kind == rodain.EventMirrorAttached {
			break
		}
	}

	// Provision prepaid subscribers through logged writes (replicated).
	const initialCents = 100_00
	if err := primary.Populate(subscribers, func(i int) (rodain.ObjectID, []byte) {
		sub := telecom.NewSubscriber(fmt.Sprintf("+35840%07d", i), fmt.Sprintf("Sub %d", i), true, initialCents)
		return telecom.SubscriberID(i), sub.Encode()
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("provisioned %d prepaid subscribers with %d cents each\n", subscribers, initialCents)

	// Hammer the same subscribers from many goroutines.
	var succeeded, declined, conflicts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < chargesEach; c++ {
				id := telecom.SubscriberID((w + c) % subscribers)
				err := primary.Update(500*time.Millisecond, func(tx *rodain.Tx) error {
					enc, err := tx.Read(id)
					if err != nil {
						return err
					}
					// Rating: pricing the call takes real time, which
					// stretches the read→validate window and creates the
					// overlapping read-modify-writes OCC must arbitrate.
					time.Sleep(time.Millisecond)
					next, err := telecom.Charge(enc, chargeCents)
					if err != nil {
						return err // insufficient balance: business abort
					}
					return tx.Write(id, next)
				})
				switch {
				case err == nil:
					succeeded.Add(1)
				case errors.Is(err, rodain.ErrConflict):
					conflicts.Add(1)
				case err != nil && !errors.Is(err, rodain.ErrDeadline):
					declined.Add(1) // insufficient balance
				}
			}
		}()
	}
	wg.Wait()

	// Conservation check: every successful charge, and only those, left
	// the books.
	var total int64
	for i := 0; i < subscribers; i++ {
		enc, ok := primary.Get(telecom.SubscriberID(i))
		if !ok {
			log.Fatal("subscriber vanished")
		}
		sub, err := telecom.DecodeSubscriber(enc)
		if err != nil {
			log.Fatal(err)
		}
		total += sub.BalanceCents
	}
	want := int64(subscribers*initialCents) - succeeded.Load()*chargeCents
	fmt.Printf("charges: %d succeeded, %d declined (balance), %d aborted after restarts\n",
		succeeded.Load(), declined.Load(), conflicts.Load())
	fmt.Printf("total balance %d cents, expected %d — ", total, want)
	if total == want {
		fmt.Println("books balance exactly")
	} else {
		log.Fatal("MONEY LEAKED")
	}
	st := primary.Stats()
	fmt.Printf("engine: %d commits, %d concurrency-control restarts, all shipped to the mirror\n",
		st.Outcome.Committed, st.Outcome.Restarts)
}
