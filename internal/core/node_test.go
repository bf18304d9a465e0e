package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
)

// fastCfg keeps watchdog intervals short so failover tests run quickly.
func fastCfg() Config {
	return Config{
		Workers:         2,
		AckTimeout:      2 * time.Second,
		HeartbeatEvery:  25 * time.Millisecond,
		HeartbeatMisses: 4,
		MirrorSyncEvery: 10 * time.Millisecond,
	}
}

func newDBWith(n int) *store.Store {
	db := store.New()
	for i := 0; i < n; i++ {
		db.Put(store.ObjectID(i), []byte(fmt.Sprintf("init-%d", i)))
	}
	return db
}

func waitEvent(t *testing.T, n *Node, kind EventKind, within time.Duration) Event {
	t.Helper()
	deadline := time.After(within)
	for {
		select {
		case ev := <-n.Events():
			if ev.Kind == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("node %s: event %v not seen within %v", n.Name(), kind, within)
		}
	}
}

func waitConverged(t *testing.T, a, b *store.Store, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if a.Checksum() == b.Checksum() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("databases did not converge within %v", within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startPair boots a primary+mirror pair connected over loopback TCP; the
// primary is served in logMode.
func startPair(t *testing.T, logMode LogMode) (primary, mirror *Node, pLog, mLog *logstore.Mem) {
	t.Helper()
	pLog, mLog = logstore.NewMem(), logstore.NewMem()
	primary = NewNode("primary", fastCfg(), newDBWith(100), pLog)
	if err := primary.ServePrimary("127.0.0.1:0", logMode); err != nil {
		t.Fatal(err)
	}
	mirror = NewNode("mirror", fastCfg(), store.New(), mLog)
	go func() {
		if err := mirror.RunMirror(primary.ReplAddr(), "127.0.0.1:0"); err != nil {
			t.Logf("mirror RunMirror: %v", err)
		}
	}()
	waitEvent(t, primary, EventMirrorAttached, 5*time.Second)
	return primary, mirror, pLog, mLog
}

func TestPairShipsAndConverges(t *testing.T) {
	primary, mirror, _, mLog := startPair(t, LogDisk)
	defer primary.Close()
	defer mirror.Close()

	for i := 0; i < 20; i++ {
		i := i
		err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
			v, err := tx.Read(store.ObjectID(i))
			if err != nil {
				return err
			}
			return tx.Write(store.ObjectID(i), append(v, '!'))
		}})
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if primary.Engine().LogMode() != LogShip {
		t.Fatalf("primary log mode = %v", primary.Engine().LogMode())
	}
	if primary.Mode() != ModePrimary {
		t.Fatalf("primary mode = %v", primary.Mode())
	}
	waitConverged(t, primary.DB(), mirror.DB(), 3*time.Second)

	// The mirror's disk log replays to the same database.
	time.Sleep(30 * time.Millisecond) // allow one async flush cycle
	recovered := store.New()
	st, err := wal.Recover(bytes.NewReader(mLog.SyncedBytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied == 0 {
		t.Fatal("mirror stored no committed groups")
	}
	if recovered.Checksum() != primary.DB().Checksum() {
		t.Fatal("mirror disk log does not replay to the primary state")
	}
}

func TestCommitWaitsForMirrorAck(t *testing.T) {
	primary, mirror, pLog, _ := startPair(t, LogDisk)
	defer primary.Close()
	defer mirror.Close()

	if err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("shipped"))
	}}); err != nil {
		t.Fatal(err)
	}
	// In shipping mode the primary's own disk sees no commit syncs: the
	// disk write is off the critical path.
	if pLog.Stats().Syncs != 0 {
		t.Fatalf("primary synced its disk %d times in shipping mode", pLog.Stats().Syncs)
	}
}

// TestMirrorLossSwitchesToTransient: a primary that loses its mirror
// returns to the single-node path it was served with, and only LogDisk
// syncs its own disk.
func TestMirrorLossSwitchesToTransient(t *testing.T) {
	for _, mode := range []LogMode{LogDisk, LogDiscard, LogNone} {
		t.Run(mode.String(), func(t *testing.T) {
			primary, mirror, pLog, _ := startPair(t, mode)
			defer primary.Close()

			mirror.Crash()
			waitEvent(t, primary, EventMirrorLost, 5*time.Second)
			syncs := pLog.Stats().Syncs

			if err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
				return tx.Write(2, []byte("after mirror loss"))
			}}); err != nil {
				t.Fatalf("transient-mode txn: %v", err)
			}
			if got := primary.Engine().LogMode(); got != mode {
				t.Fatalf("log mode = %v, want %v", got, mode)
			}
			if got := primary.Mode(); got != ModeTransient {
				t.Fatalf("mode = %v, want %v", got, ModeTransient)
			}
			if synced := pLog.Stats().Syncs > syncs; synced != (mode == LogDisk) {
				t.Fatalf("%v: disk synced after the loss = %v", mode, synced)
			}
		})
	}
}

func TestTakeoverOnPrimaryFailure(t *testing.T) {
	primary, mirror, _, _ := startPair(t, LogDisk)
	defer mirror.Close()

	// Commit some state, then kill the primary.
	for i := 0; i < 5; i++ {
		if err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i), []byte("pre-failure"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, primary.DB(), mirror.DB(), 3*time.Second)
	primary.Crash()

	waitEvent(t, mirror, EventTakeover, 5*time.Second)
	if mirror.Mode() != ModeTransient {
		t.Fatalf("mirror mode = %v", mirror.Mode())
	}
	// The promoted node serves transactions, including reads of
	// pre-failure commits.
	err := mirror.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
		v, err := tx.Read(3)
		if err != nil {
			return err
		}
		if string(v) != "pre-failure" {
			return fmt.Errorf("lost committed data: %q", v)
		}
		return tx.Write(3, []byte("post-takeover"))
	}})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecoveredNodeRejoinsAsMirror(t *testing.T) {
	primary, mirror, pLog, _ := startPair(t, LogDisk)

	if err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("epoch-1"))
	}}); err != nil {
		t.Fatal(err)
	}
	primary.Crash()
	waitEvent(t, mirror, EventTakeover, 5*time.Second)
	defer mirror.Close()

	// More commits while the old primary is down.
	for i := 10; i < 15; i++ {
		if err := mirror.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i), []byte("epoch-2"))
		}}); err != nil {
			t.Fatal(err)
		}
	}

	// The failed node restarts from its own disk (a primary that shipped
	// every commit stored none of them) and always rejoins as mirror.
	rejoined := NewNode("rejoined", fastCfg(), store.New(), logstore.NewMem())
	if _, err := recoverNode(rejoined, "", bytes.NewReader(pLog.SyncedBytes())); err != nil {
		t.Fatal(err)
	}
	go rejoined.RunMirror(mirror.ReplAddr(), "127.0.0.1:0")
	defer rejoined.Close()
	waitEvent(t, mirror, EventMirrorAttached, 5*time.Second)
	if mirror.Mode() != ModePrimary {
		t.Fatalf("promoted node mode = %v", mirror.Mode())
	}

	// New commits ship to the rejoined mirror; state transfer carried
	// the history.
	if err := mirror.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
		return tx.Write(20, []byte("epoch-2-shipped"))
	}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, mirror.DB(), rejoined.DB(), 3*time.Second)
	v, ok := rejoined.DB().Get(1)
	if !ok || string(v) != "epoch-1" {
		t.Fatalf("rejoined mirror missing epoch-1 data: %q %v", v, ok)
	}
}

// TestMirrorHelloCarriesRecoveredSerial: a node recovered to serial N
// opens its first mirror session with a hello at N, the serial its own
// disk proves.
func TestMirrorHelloCarriesRecoveredSerial(t *testing.T) {
	log := logstore.NewMem()
	n1 := NewNode("a", fastCfg(), newDBWith(10), log)
	if err := n1.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := n1.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i), []byte("v"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	n1.Crash()

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hello := make(chan *transport.Msg, 1)
	go func() {
		defer close(hello)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if msg, err := conn.Recv(); err == nil {
			hello <- msg
		}
	}()

	n2 := NewNode("b", fastCfg(), store.New(), logstore.NewMem())
	defer n2.Close()
	if _, err := recoverNode(n2, "", bytes.NewReader(log.SyncedBytes())); err != nil {
		t.Fatal(err)
	}
	go n2.RunMirror(l.Addr(), "")
	select {
	case msg, ok := <-hello:
		if !ok {
			t.Fatal("no hello received")
		}
		if msg.Type != transport.MsgHello || msg.Serial != 7 {
			t.Fatalf("first message %v serial %d, want a hello at serial 7", msg.Type, msg.Serial)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no hello within 5s")
	}
}

func TestExecuteOnMirrorFails(t *testing.T) {
	primary, mirror, _, _ := startPair(t, LogDisk)
	defer primary.Close()
	defer mirror.Close()
	err := mirror.Execute(Request{Do: func(tx *Tx) error { return nil }})
	if !errors.Is(err, ErrNotServing) {
		t.Fatalf("err = %v", err)
	}
}

func TestTransientRecoveryFromDiskLog(t *testing.T) {
	// A single node with true log writes crashes; a fresh node recovers
	// the synced log.
	log := logstore.NewMem()
	n1 := NewNode("n1", fastCfg(), newDBWith(50), log)
	if err := n1.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := n1.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i), []byte("durable"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	want := n1.DB().Checksum()
	n1.Crash()

	n2 := NewNode("n2", fastCfg(), newDBWith(50), logstore.NewMem())
	st, err := recoverNode(n2, "", bytes.NewReader(log.SyncedBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 10 {
		t.Fatalf("recovered %d transactions, want 10", st.Applied)
	}
	if n2.DB().Checksum() != want {
		t.Fatal("recovered database differs")
	}
	// The recovered node can serve, continuing the epoch.
	if err := n2.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if err := n2.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("new epoch"))
	}}); err != nil {
		t.Fatal(err)
	}
	if got := n2.Engine().Controller().LastSerial(); got != 11 {
		t.Fatalf("first commit after recovery at serial %d, want 11", got)
	}
}

func TestSingleNodeModes(t *testing.T) {
	for _, mode := range []LogMode{LogDisk, LogDiscard, LogNone} {
		t.Run(mode.String(), func(t *testing.T) {
			log := logstore.NewMem()
			n := NewNode("solo", fastCfg(), newDBWith(10), log)
			if err := n.ServePrimary("", mode); err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if err := n.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
				return tx.Write(1, []byte("x"))
			}}); err != nil {
				t.Fatal(err)
			}
			syncs := log.Stats().Syncs
			switch mode {
			case LogDisk:
				if syncs == 0 {
					t.Fatal("LogDisk must sync")
				}
			default:
				if syncs != 0 {
					t.Fatalf("%v synced %d times", mode, syncs)
				}
			}
		})
	}
}

func TestServePrimaryRejectsLogShip(t *testing.T) {
	n := NewNode("x", fastCfg(), store.New(), logstore.NewMem())
	if err := n.ServePrimary("", LogShip); err == nil {
		t.Fatal("LogShip accepted as initial mode")
	}
}

func TestDoubleServeRejected(t *testing.T) {
	n := NewNode("x", fastCfg(), store.New(), logstore.NewMem())
	if err := n.ServePrimary("", LogNone); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.ServePrimary("", LogNone); err == nil {
		t.Fatal("second ServePrimary accepted")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	n := NewNode("x", fastCfg(), store.New(), logstore.NewMem())
	n.ServePrimary("", LogNone)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Execute(Request{Do: func(tx *Tx) error { return nil }}); err == nil {
		t.Fatal("execute after close succeeded")
	}
}

func TestModeAndEventStrings(t *testing.T) {
	for _, m := range []Mode{ModePrimary, ModeMirror, ModeTransient, Mode(9)} {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
	for _, m := range []LogMode{LogShip, LogDisk, LogDiscard, LogNone, LogMode(9)} {
		if m.String() == "" {
			t.Fatal("empty log mode string")
		}
	}
	for _, k := range []EventKind{EventMirrorAttached, EventMirrorLost, EventTakeover, EventCommitFailed, EventKind(9)} {
		if k.String() == "" {
			t.Fatal("empty event kind string")
		}
	}
}

func TestUpdateLatencyUnderShipping(t *testing.T) {
	// Sanity: commit latency in shipping mode stays near the loopback
	// round trip — the disk is off the critical path even with a slow
	// disk attached.
	slowDisk := logstore.NewDelayed(logstore.NewMem(), 10*time.Millisecond)
	primary := NewNode("primary", fastCfg(), newDBWith(10), slowDisk)
	if err := primary.ServePrimary("127.0.0.1:0", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	mirror := NewNode("mirror", fastCfg(), store.New(), logstore.NewMem())
	go mirror.RunMirror(primary.ReplAddr(), "")
	defer mirror.Close()
	waitEvent(t, primary, EventMirrorAttached, 5*time.Second)

	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := primary.Execute(Request{Deadline: time.Second, Do: func(tx *Tx) error {
			return tx.Write(1, []byte("fast"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 20 sequential commits through a 10ms disk would take ≥200ms; via
	// the mirror they take a few ms of loopback round trips.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("shipping commits took %v — disk appears to be on the critical path", elapsed)
	}
}

func TestSimultaneousFailureRecoversFromMirrorLog(t *testing.T) {
	// Both nodes die. The mirror's disk log — written asynchronously,
	// reordered into validation order — rebuilds everything that had
	// been synced; with a graceful mirror stop, that is everything.
	primary, mirror, _, mLog := startPair(t, LogDisk)
	for i := 0; i < 30; i++ {
		if err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
			return tx.Write(store.ObjectID(i), []byte("both-fail"))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	want := primary.DB().Checksum()
	waitConverged(t, primary.DB(), mirror.DB(), 3*time.Second)
	primary.Crash()
	// The mirror begins takeover; stop it gracefully (final log sync).
	waitEvent(t, mirror, EventTakeover, 5*time.Second)
	mirror.Close()

	fresh := NewNode("fresh", fastCfg(), newDBWith(100), logstore.NewMem())
	st, err := recoverNode(fresh, "", bytes.NewReader(mLog.SyncedBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied < 30 {
		t.Fatalf("replayed only %d transactions", st.Applied)
	}
	if fresh.DB().Checksum() != want {
		t.Fatal("recovered database differs from the failed primary")
	}
}

func TestNodeAccessors(t *testing.T) {
	n := NewNode("named", fastCfg(), newDBWith(1), logstore.NewMem())
	if n.Name() != "named" {
		t.Fatalf("Name = %q", n.Name())
	}
	if n.ReplAddr() != "" {
		t.Fatal("ReplAddr before listen should be empty")
	}
	if n.Mode() != ModeMirror {
		t.Fatalf("Mode before serve = %v, want %v", n.Mode(), ModeMirror)
	}
	n.ServePrimary("", LogNone)
	defer n.Close()
	if n.Engine() == nil {
		t.Fatal("Engine nil after serve")
	}
	if n.Mode() != ModeTransient {
		t.Fatalf("Mode after serve = %v, want %v", n.Mode(), ModeTransient)
	}
}

func TestMirrorEngineAccessors(t *testing.T) {
	m := NewMirrorEngine(fastCfg(), newDBWith(3), logstore.NewMem())
	if m.DB().Len() != 3 {
		t.Fatal("DB accessor")
	}
	if m.Applied() != 0 || m.LastSerial() != 0 || m.MaxCommitTS() != 0 {
		t.Fatal("fresh mirror has history")
	}
}

func TestDialRetryFailsEventually(t *testing.T) {
	start := time.Now()
	_, err := dialRetry("127.0.0.1:1", 200*time.Millisecond, simtime.Wall)
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("dialRetry did not respect its budget")
	}
}

func TestBuildCommitterVariants(t *testing.T) {
	mem := logstore.NewMem()
	cfg := Config{}.withDefaults()
	if c := buildCommitter(LogDiscard, mem, cfg); c == nil {
		t.Fatal("nil discard committer")
	}
	if c := buildCommitter(LogNone, mem, cfg); c == nil {
		t.Fatal("nil null committer")
	}
	if c := buildCommitter(LogDisk, mem, cfg); c == nil {
		t.Fatal("nil disk committer")
	} else if _, ok := c.(*GroupCommitter); !ok {
		t.Fatalf("LogDisk default committer is %T, want *GroupCommitter", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("buildCommitter(LogShip) should panic")
		}
	}()
	buildCommitter(LogShip, mem, cfg)
}

func TestDeleteReplicatesAndRecovers(t *testing.T) {
	primary, mirror, _, mLog := startPair(t, LogDisk)
	defer mirror.Close()
	// Insert then delete, both replicated.
	if err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
		return tx.Write(200, []byte("temp"))
	}}); err != nil {
		t.Fatal(err)
	}
	if err := primary.Execute(Request{Deadline: 2 * time.Second, Do: func(tx *Tx) error {
		if _, err := tx.Read(200); err != nil {
			return err
		}
		return tx.Delete(200)
	}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := primary.DB().Get(200); ok {
		t.Fatal("delete not applied locally")
	}
	waitConverged(t, primary.DB(), mirror.DB(), 3*time.Second)
	if _, ok := mirror.DB().Get(200); ok {
		t.Fatal("delete not applied on the mirror")
	}
	want := primary.DB().Checksum()
	primary.Close()
	time.Sleep(30 * time.Millisecond)

	// The mirror's log replays the delete too.
	fresh := NewNode("fresh", fastCfg(), store.New(), logstore.NewMem())
	if _, err := recoverNode(fresh, "", bytes.NewReader(mLog.SyncedBytes())); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.DB().Get(200); ok {
		t.Fatal("recovery resurrected a deleted object")
	}
	if fresh.DB().Checksum() != want {
		t.Fatal("recovered state differs")
	}
}

// TestMirrorRejoinKeepsCommitting: a mirror that connects while the
// previous mirror session is still live replaces that session. Commits
// in flight on the old session are failed by its close before the new
// session is installed; they must wait for the new commit path instead
// of failing, and updates keep returning OK before, during and after the
// replacement. The new mirror joins from a fuzzy image taken while the
// writers run, so its log — the image plus the live suffix — must
// replay to the primary's state.
func TestMirrorRejoinKeepsCommitting(t *testing.T) {
	const objects = 20000 // an image that takes a while widens the swap window
	primary := NewNode("primary", fastCfg(), newDBWith(objects), logstore.NewMem())
	if err := primary.ServePrimary("127.0.0.1:0", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	join := func(name string) (*Node, *logstore.Mem) {
		log := logstore.NewMem()
		m := NewNode(name, fastCfg(), store.New(), log)
		go m.RunMirror(primary.ReplAddr(), "")
		waitEvent(t, primary, EventMirrorAttached, 5*time.Second)
		return m, log
	}
	first, _ := join("mirror-1")
	defer first.Close()

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := store.ObjectID(w*10 + i%10)
				if err := primary.Execute(Request{Deadline: 10 * time.Second, Do: func(tx *Tx) error {
					return tx.Write(id, []byte(fmt.Sprintf("w%d-%d", w, i)))
				}}); err != nil {
					errs <- fmt.Errorf("worker %d update %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	second, secondLog := join("mirror-2")
	defer second.Close()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := primary.Execute(Request{Deadline: 10 * time.Second, Do: func(tx *Tx) error {
		return tx.Write(1, []byte("after rejoin"))
	}}); err != nil {
		t.Fatalf("update after the rejoin: %v", err)
	}
	if got := primary.Engine().LogMode(); got != LogShip {
		t.Fatalf("log mode %v after the rejoin, want ship", got)
	}
	waitConverged(t, primary.DB(), second.DB(), 5*time.Second)

	want := primary.DB().Checksum()
	second.Close() // syncs the log
	recovered := store.New()
	if _, err := wal.Recover(bytes.NewReader(secondLog.SyncedBytes()), recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.Checksum() != want {
		t.Fatal("the rejoined mirror's log does not replay to the primary's state")
	}
}
