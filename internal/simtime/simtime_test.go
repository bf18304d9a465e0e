package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestLoopFiresInOrder(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(30, func() { got = append(got, 3) })
	l.At(10, func() { got = append(got, 1) })
	l.At(20, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != 30 {
		t.Fatalf("Now = %v, want 30", l.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	l := NewLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(5, func() { got = append(got, i) })
	}
	l.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	l := NewLoop()
	var at Time
	l.At(100, func() {
		l.After(50, func() { at = l.Now() })
	})
	l.Run()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestCancel(t *testing.T) {
	l := NewLoop()
	fired := false
	e := l.At(10, func() { fired = true })
	if !l.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if l.Cancel(e) {
		t.Fatal("second Cancel should report false")
	}
	l.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelNil(t *testing.T) {
	l := NewLoop()
	if l.Cancel(nil) {
		t.Fatal("Cancel(nil) should report false")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	l := NewLoop()
	l.At(100, func() {})
	l.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	l.At(50, func() {})
}

// Property: for any set of scheduled times, events fire in nondecreasing
// time order and the count of fired events equals the count scheduled.
func TestPropertyFiringOrder(t *testing.T) {
	f := func(offsets []uint16) bool {
		l := NewLoop()
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			l.At(at, func() { fired = append(fired, l.Now()) })
		}
		l.Run()
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset prevents exactly that subset.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLoop()
		total := int(n%64) + 1
		firedCount := 0
		events := make([]*Event, total)
		for i := 0; i < total; i++ {
			events[i] = l.At(Time(rng.Intn(1000)), func() { firedCount++ })
		}
		canceled := 0
		for _, e := range events {
			if rng.Intn(2) == 0 {
				if l.Cancel(e) {
					canceled++
				}
			}
		}
		l.Run()
		return firedCount == total-canceled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimClock(t *testing.T) {
	l := NewLoop()
	c := SimClock{Loop: l}
	fired := false
	cancel := c.AfterFunc(100*time.Nanosecond, func() { fired = true })
	l.Run()
	if !fired {
		t.Fatal("AfterFunc did not fire")
	}
	if cancel() {
		t.Fatal("cancel after firing should report false")
	}
}

func TestWallClock(t *testing.T) {
	c := NewWallClock()
	t0 := c.Now()
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("wall AfterFunc never fired")
	}
	if c.Now() <= t0 {
		t.Fatal("wall clock did not advance")
	}
}

func TestTimeStringAndMath(t *testing.T) {
	if Never.String() != "never" {
		t.Fatalf("Never.String() = %q", Never.String())
	}
	tt := Time(0).Add(time.Second)
	if tt.Seconds() != 1.0 {
		t.Fatalf("Seconds = %v, want 1", tt.Seconds())
	}
	if tt.Sub(Time(0)) != time.Second {
		t.Fatalf("Sub = %v", tt.Sub(Time(0)))
	}
	if Time(time.Millisecond).String() != "1ms" {
		t.Fatalf("String = %q", Time(time.Millisecond).String())
	}
}
