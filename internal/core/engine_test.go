package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wal"
)

func newTestEngine(t *testing.T, cfg Config, mode LogMode) (*Engine, *store.Store, *logstore.Mem) {
	t.Helper()
	db := store.New()
	for i := 0; i < 100; i++ {
		db.Put(store.ObjectID(i), []byte{byte(i)})
	}
	mem := logstore.NewMem()
	e := NewEngine(cfg, db, buildCommitter(mode, mem, cfg.withDefaults()), mode)
	t.Cleanup(e.Stop)
	return e, db, mem
}

func TestExecuteReadOnly(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogNone)
	var got []byte
	err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		v, err := tx.Read(5)
		got = v
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("read = %v", got)
	}
	s := e.Outcome().Snapshot()
	if s.Committed != 1 || s.Missed != 0 {
		t.Fatalf("outcome = %+v", s)
	}
}

func TestExecuteWriteVisible(t *testing.T) {
	e, db, mem := newTestEngine(t, Config{}, LogDisk)
	err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		v, err := tx.Read(1)
		if err != nil {
			return err
		}
		v[0]++
		return tx.Write(1, v)
	}})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := db.Get(1)
	if v[0] != 2 {
		t.Fatalf("db value = %v", v)
	}
	// The commit must be durable: the log holds the group, synced.
	recovered := store.New()
	st, err := wal.Recover(readerOf(mem.SyncedBytes()), recovered)
	if err != nil || st.Applied != 1 {
		t.Fatalf("recover: %+v %v", st, err)
	}
	rv, _ := recovered.Get(1)
	if rv[0] != 2 {
		t.Fatalf("recovered value = %v", rv)
	}
}

func TestReadYourWritesThroughTx(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogNone)
	err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		if err := tx.Write(3, []byte("mine")); err != nil {
			return err
		}
		v, err := tx.Read(3)
		if err != nil {
			return err
		}
		if string(v) != "mine" {
			t.Errorf("read-your-writes = %q", v)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadMissingObject(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogNone)
	err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		_, err := tx.Read(9999)
		return err
	}})
	if err == nil {
		t.Fatal("missing object read succeeded")
	}
	s := e.Outcome().Snapshot()
	if s.ByReason[txn.UserAbort] != 1 {
		t.Fatalf("outcome = %+v", s)
	}
}

func TestUserAbortDiscardsWrites(t *testing.T) {
	e, db, _ := newTestEngine(t, Config{}, LogNone)
	boom := errors.New("boom")
	before := db.Checksum()
	err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		tx.Write(1, []byte("junk"))
		return boom
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if db.Checksum() != before {
		t.Fatal("aborted transaction changed the database")
	}
}

func TestFirmDeadlineMiss(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogNone)
	err := e.Execute(Request{Class: txn.Firm, Deadline: 5 * time.Millisecond, Do: func(tx *Tx) error {
		time.Sleep(30 * time.Millisecond)
		_, err := tx.Read(1)
		return err
	}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v", err)
	}
	s := e.Outcome().Snapshot()
	if s.ByReason[txn.DeadlineMiss] != 1 {
		t.Fatalf("outcome = %+v", s)
	}
}

func TestSoftDeadlineCommitsLate(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogNone)
	err := e.Execute(Request{Class: txn.Soft, Deadline: time.Millisecond, Do: func(tx *Tx) error {
		time.Sleep(20 * time.Millisecond)
		_, err := tx.Read(1)
		return err
	}})
	if err != nil {
		t.Fatalf("soft transaction should commit late, got %v", err)
	}
	s := e.Outcome().Snapshot()
	if s.Committed != 1 || s.LateCommits != 1 || s.Missed != 1 {
		t.Fatalf("outcome = %+v", s)
	}
}

func TestNonRealTimeRuns(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogNone)
	err := e.Execute(Request{Class: txn.NonRealTime, Do: func(tx *Tx) error {
		_, err := tx.Read(1)
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOverloadDenial(t *testing.T) {
	cfg := Config{Workers: 1, Overload: sched.OverloadConfig{MaxActive: 1, MinActive: 1}}
	e, _, _ := newTestEngine(t, cfg, LogNone)
	hold := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
			close(started)
			<-hold
			return nil
		}})
	}()
	<-started
	err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error { return nil }})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("err = %v", err)
	}
	close(hold)
	wg.Wait()
	s := e.Outcome().Snapshot()
	if s.ByReason[txn.OverloadDenied] != 1 {
		t.Fatalf("outcome = %+v", s)
	}
}

func TestConflictRestartSucceeds(t *testing.T) {
	// With OCC-BC, a reader whose item is overwritten restarts; the
	// second attempt commits.
	cfg := Config{Workers: 2, Protocol: occ.BC}
	e, db, _ := newTestEngine(t, cfg, LogNone)

	readerInFirstAttempt := make(chan struct{})
	writerDone := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := e.Execute(Request{Deadline: 5 * time.Second, Do: func(tx *Tx) error {
			if _, err := tx.Read(7); err != nil {
				return err
			}
			once.Do(func() { close(readerInFirstAttempt) })
			<-writerDone // ensure overlap with the writer's commit
			return nil
		}})
		if err != nil {
			t.Errorf("reader failed: %v", err)
		}
	}()

	<-readerInFirstAttempt
	if err := e.Execute(Request{Deadline: 5 * time.Second, Do: func(tx *Tx) error {
		return tx.Write(7, []byte("overwritten"))
	}}); err != nil {
		t.Fatalf("writer failed: %v", err)
	}
	close(writerDone)
	wg.Wait()

	s := e.Outcome().Snapshot()
	if s.Restarts == 0 {
		t.Fatalf("expected at least one restart, outcome = %+v", s)
	}
	if s.Committed != 2 {
		t.Fatalf("outcome = %+v", s)
	}
	v, _ := db.Get(7)
	if string(v) != "overwritten" {
		t.Fatalf("final value = %q", v)
	}
}

func TestConflictExhaustsRestarts(t *testing.T) {
	cfg := Config{Workers: 2, Protocol: occ.BC, MaxRestarts: 2}
	e, _, _ := newTestEngine(t, cfg, LogNone)

	readerReady := make(chan struct{}, 16)
	proceed := make(chan struct{}, 16)
	var wg sync.WaitGroup
	wg.Add(1)
	var readerErr error
	go func() {
		defer wg.Done()
		readerErr = e.Execute(Request{Deadline: 10 * time.Second, Do: func(tx *Tx) error {
			if _, err := tx.Read(7); err != nil {
				return err
			}
			readerReady <- struct{}{}
			<-proceed
			return nil
		}})
	}()

	// Overwrite object 7 during every reader attempt: initial + 2
	// restarts = 3 attempts.
	for i := 0; i < 3; i++ {
		<-readerReady
		if err := e.Execute(Request{Deadline: 5 * time.Second, Do: func(tx *Tx) error {
			return tx.Write(7, []byte{byte(i)})
		}}); err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
		proceed <- struct{}{}
	}
	wg.Wait()
	if !errors.Is(readerErr, ErrConflict) {
		t.Fatalf("reader err = %v", readerErr)
	}
	s := e.Outcome().Snapshot()
	if s.ByReason[txn.Conflict] != 1 || s.Restarts != 2 {
		t.Fatalf("outcome = %+v", s)
	}
}

func TestStopRejectsNewWork(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogNone)
	e.Stop()
	if err := e.Execute(Request{Do: func(tx *Tx) error { return nil }}); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v", err)
	}
	e.Stop() // idempotent
}

func TestCommitWaitHistogram(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogDisk)
	for i := 0; i < 5; i++ {
		if err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
			return tx.Write(1, []byte("x"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if e.CommitWaits().Count() != 5 {
		t.Fatalf("commit waits = %d", e.CommitWaits().Count())
	}
	if e.ResponseTimes().Count() != 5 {
		t.Fatalf("response times = %d", e.ResponseTimes().Count())
	}
}

func TestSetCommitterSwitchesMode(t *testing.T) {
	e, _, mem := newTestEngine(t, Config{}, LogNone)
	if e.LogMode() != LogNone {
		t.Fatalf("mode = %v", e.LogMode())
	}
	prev := e.SetCommitter(NewGroupCommitter(mem, GroupOptions{}), LogDisk)
	if prev == nil || e.LogMode() != LogDisk {
		t.Fatalf("swap failed: %v %v", prev, e.LogMode())
	}
	if err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		return tx.Write(2, []byte("y"))
	}}); err != nil {
		t.Fatal(err)
	}
	if mem.Stats().Syncs == 0 {
		t.Fatal("disk committer not used after swap")
	}
}

func readerOf(b []byte) *bytes.Reader { return bytes.NewReader(b) }

func TestCriticalityDisplacement(t *testing.T) {
	// One executor slot busy with a held transaction; the queue holds a
	// low-criticality transaction; the admission limit is 2. A
	// high-criticality arrival displaces the queued one.
	cfg := Config{Workers: 1, Overload: sched.OverloadConfig{MaxActive: 2, MinActive: 2}}
	e, _, _ := newTestEngine(t, cfg, LogNone)

	hold := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.Execute(Request{Deadline: 5 * time.Second, Do: func(tx *Tx) error {
			close(started)
			<-hold
			return nil
		}})
	}()
	<-started

	var lowErr error
	lowDone := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(lowDone)
		lowErr = e.Execute(Request{Deadline: 5 * time.Second, Criticality: 1, Do: func(tx *Tx) error {
			return nil
		}})
	}()
	// Wait until the low-criticality txn is queued (admitted, not
	// running: the single slot is held).
	deadline := time.After(2 * time.Second)
	for e.queue.Len() == 0 {
		select {
		case <-deadline:
			t.Fatal("low-criticality txn never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Limit reached; a zero-criticality arrival is denied...
	if err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error { return nil }}); !errors.Is(err, ErrOverload) {
		t.Fatalf("plain arrival: %v", err)
	}
	// ...but a criticality-9 arrival displaces the queued one. It runs
	// in a goroutine: it cannot finish until the held slot frees up.
	highDone := make(chan error, 1)
	go func() {
		highDone <- e.Execute(Request{Deadline: 5 * time.Second, Criticality: 9, Do: func(tx *Tx) error {
			return nil
		}})
	}()
	select {
	case <-lowDone:
	case <-time.After(5 * time.Second):
		t.Fatal("victim was never displaced")
	}
	if !errors.Is(lowErr, ErrOverload) {
		t.Fatalf("victim err = %v", lowErr)
	}
	close(hold)
	wg.Wait()
	if err := <-highDone; err != nil {
		t.Fatalf("high-criticality arrival failed: %v", err)
	}
	s := e.Outcome().Snapshot()
	if s.ByReason[txn.OverloadDenied] != 2 { // plain arrival + victim
		t.Fatalf("outcome = %+v", s)
	}
}

func TestEngineAccessors(t *testing.T) {
	e, db, _ := newTestEngine(t, Config{}, LogNone)
	if e.DB() != db {
		t.Fatal("DB accessor mismatch")
	}
	if e.Overload() == nil || e.Controller() == nil {
		t.Fatal("nil accessors")
	}
	var gotID txn.ID
	var gotRestarts int
	if err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		gotID = tx.ID()
		gotRestarts = tx.Restarts()
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if gotID == 0 || gotRestarts != 0 {
		t.Fatalf("tx accessors: id=%d restarts=%d", gotID, gotRestarts)
	}
}

func TestDiscardCommitterThroughEngine(t *testing.T) {
	e, _, mem := newTestEngine(t, Config{}, LogDiscard)
	if err := e.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("x"))
	}}); err != nil {
		t.Fatal(err)
	}
	if mem.Stats().BytesAppended != 0 {
		t.Fatal("LogDiscard wrote to the device")
	}
}

func TestWriteAfterDeadline(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{}, LogNone)
	err := e.Execute(Request{Class: txn.Firm, Deadline: time.Millisecond, Do: func(tx *Tx) error {
		time.Sleep(10 * time.Millisecond)
		return tx.Write(1, []byte("late")) // Write's deadline check fires
	}})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v", err)
	}
}

// TestQueuedDispatchIsEDF: with the one executor slot taken, queued
// transactions run in deadline order once it frees, not in arrival order.
func TestQueuedDispatchIsEDF(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{Workers: 1}, LogNone)
	hold := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Execute(Request{Deadline: 5 * time.Second, Do: func(*Tx) error {
			close(started)
			<-hold
			return nil
		}})
	}()
	<-started

	var mu sync.Mutex
	var order []time.Duration
	for _, d := range []time.Duration{300 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := e.Execute(Request{Class: txn.Soft, Deadline: d, Do: func(*Tx) error {
				mu.Lock()
				order = append(order, d)
				mu.Unlock()
				return nil
			}})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, "three queued transactions", func() bool { return e.queue.Len() == 3 })
	close(hold)
	wg.Wait()
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("ran in order %v, want %v", order, want)
	}
}

// TestEngineStartsNoGoroutines: executor slots are not goroutines; the
// submitter runs its own transaction.
func TestEngineStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(Config{Workers: 4}, store.New(), newNoWaitCommitter(), LogDiscard)
	t.Cleanup(e.Stop)
	if grew := runtime.NumGoroutine() - before; grew > 0 {
		t.Fatalf("NewEngine with 4 slots started %d goroutines", grew)
	}
}
