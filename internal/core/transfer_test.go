package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wal"
)

// transferImage builds a state-transfer image over two stripes: one
// record per id, and the given watermarks.
func transferImage(t *testing.T, marks []uint64, ids ...store.ObjectID) []byte {
	t.Helper()
	recs := make([]store.Record, len(ids))
	for i, id := range ids {
		recs[i] = store.Record{ID: id, Value: []byte("image"), WriteTS: 1}
	}
	buf := bytes.NewBuffer(wal.AppendCheckpointRecords(nil, recs))
	if err := wal.WriteCheckpointTrailer(buf, marks); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sendTransfer sends one state transfer at serial, image in one chunk,
// whose end frame carries the last serial issued when the copy ended.
func sendTransfer(t *testing.T, c *transport.Conn, serial, end uint64, image []byte) {
	t.Helper()
	for _, m := range []*transport.Msg{
		{Type: transport.MsgSnapshotBegin, Serial: serial},
		{Type: transport.MsgSnapshotChunk, Payload: image},
		{Type: transport.MsgSnapshotEnd, Serial: end},
	} {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
}

// groupAt builds the group committed at serial that writes ids.
func groupAt(serial uint64, ids ...store.ObjectID) *wal.Group {
	g := &wal.Group{Commit: &wal.Record{Type: wal.TypeCommit, TxnID: txn.ID(serial), SerialOrder: serial, CommitTS: serial * 65536}}
	for _, id := range ids {
		g.Writes = append(g.Writes, &wal.Record{Type: wal.TypeWrite, TxnID: txn.ID(serial), ObjectID: id, AfterImage: []byte{byte(serial)}})
	}
	return g
}

// sendGroup ships one group writing ids at serial, as the shipper does.
func sendGroup(t *testing.T, c *transport.Conn, serial uint64, ids ...store.ObjectID) {
	t.Helper()
	if err := c.Send(logFrame(groupAt(serial, ids...))); err != nil {
		t.Fatal(err)
	}
}

// startPipeMirror runs a mirror engine on one end of a pipe and returns
// the other end (past the hello), the session's result and its acks.
func startPipeMirror(t *testing.T, m *MirrorEngine) (*transport.Conn, <-chan error, <-chan uint64) {
	t.Helper()
	a, b := transport.Pipe()
	t.Cleanup(func() { a.Close() })
	errc := make(chan error, 1)
	go func() { errc <- m.Run(b) }()
	if hello, err := a.Recv(); err != nil || hello.Type != transport.MsgHello {
		t.Fatalf("hello: %+v, %v", hello, err)
	}
	acks := make(chan uint64, 16) // room for every ack a test expects, so the reader never blocks
	go func() {
		for {
			msg, err := a.Recv()
			if err != nil {
				return
			}
			if msg.Type == transport.MsgAck {
				acks <- msg.Serial
			}
		}
	}()
	return a, errc, acks
}

// stripeObjects returns one object in each of a two-stripe image's
// stripes.
func stripeObjects() (a, b store.ObjectID) {
	for a = 0; store.StripeOf(a, 2) != 0; a++ {
	}
	for b = 0; store.StripeOf(b, 2) != 1; b++ {
	}
	return a, b
}

// expectNoAck fails if the mirror acknowledges anything, fails, or
// reports Synced within 50 ms.
func expectNoAck(t *testing.T, m *MirrorEngine, errc <-chan error, acks <-chan uint64) {
	t.Helper()
	select {
	case s := <-acks:
		t.Fatalf("ack %d before the sync point", s)
	case err := <-errc:
		t.Fatalf("session failed: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if m.Synced() {
		t.Fatal("Synced before the replay reached the sync point")
	}
}

// TestMirrorTransferAcksFromSyncPoint: an image at serial 5 whose
// stripes sit at watermarks 7 and 5, copied while serial 8 was the last
// issued, may hold part of groups 6 to 8, so the mirror is a consistent
// prefix only at 8. It acknowledges nothing before, then 8 (covering 5
// to 7), and skips the write of group 6 that the stripe at 7 already
// holds.
func TestMirrorTransferAcksFromSyncPoint(t *testing.T) {
	a, b := stripeObjects()
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	conn, errc, acks := startPipeMirror(t, m)

	sendTransfer(t, conn, 5, 8, transferImage(t, []uint64{7, 5}, a, b))
	sendGroup(t, conn, 6, a, b)
	sendGroup(t, conn, 7, b)
	expectNoAck(t, m, errc, acks)
	sendGroup(t, conn, 8, a)
	if s := <-acks; s != 8 {
		t.Fatalf("first ack %d, want 8", s)
	}
	if !m.Synced() {
		t.Fatal("not Synced at the sync point")
	}
	sendGroup(t, conn, 9, a)
	if s := <-acks; s != 9 {
		t.Fatalf("ack %d, want 9", s)
	}
	if st := m.stats(); st.WritesSkipped != 1 || st.LastSerial != 9 {
		t.Fatalf("replay stats %+v, want group 6's write to a skipped", st)
	}
}

// TestMirrorTransferWaitsForGroupAboveWatermarks: a watermark is only a
// lower bound. An image at serial 5 whose stripes both sit at 5 may
// still hold a write of group 6, issued before the last stripe copy;
// the end frame says so, and the mirror neither acks nor syncs before
// group 6 arrives.
func TestMirrorTransferWaitsForGroupAboveWatermarks(t *testing.T) {
	a, b := stripeObjects()
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	conn, errc, acks := startPipeMirror(t, m)

	sendTransfer(t, conn, 5, 6, transferImage(t, []uint64{5, 5}, a, b))
	expectNoAck(t, m, errc, acks)
	sendGroup(t, conn, 6, a, b)
	if s := <-acks; s != 6 {
		t.Fatalf("first ack %d, want 6", s)
	}
	if !m.Synced() {
		t.Fatal("not Synced at the sync point")
	}
}

// TestMirrorLogHoldsTransferUntilSyncPoint: the image goes into the
// mirror's log as a group committed at the transfer's serial, but may
// hold part of later groups. Until the replay reaches the sync point the
// log holds none of it, so a replay of the log is never torn; from then
// on it replays to the mirror's state.
func TestMirrorLogHoldsTransferUntilSyncPoint(t *testing.T) {
	a, b := stripeObjects()
	log := newMemLog()
	m := NewMirrorEngine(fastCfg(), store.New(), log)
	conn, errc, acks := startPipeMirror(t, m)

	sendTransfer(t, conn, 5, 7, transferImage(t, []uint64{5, 5}, a, b))
	sendGroup(t, conn, 6, b)
	expectNoAck(t, m, errc, acks)
	if m.LastSerial() != 6 {
		t.Fatalf("LastSerial = %d, want 6", m.LastSerial())
	}
	cut := store.New()
	if _, err := wal.Recover(bytes.NewReader(log.Bytes()), cut); err != nil {
		t.Fatal(err)
	}
	if cut.Len() != 0 {
		t.Fatalf("log cut before the sync point replays %d objects, want none", cut.Len())
	}

	sendGroup(t, conn, 7, a)
	if s := <-acks; s != 7 {
		t.Fatalf("first ack %d, want 7", s)
	}
	synced := store.New()
	if _, err := wal.Recover(bytes.NewReader(log.Bytes()), synced); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, synced, m.DB(), 3*time.Second)
}

// TestMirrorStoresFramesAsReceived: the mirror stores what it receives
// as it arrives. After a state transfer at 5 with its sync point at 7,
// and frames {6}, {7, 8} (across the sync point) and {9, 10, 11}, its
// log is the transfer's bytes followed by the three payloads, byte for
// byte, and the groups' part is what a group committer writes for them.
func TestMirrorStoresFramesAsReceived(t *testing.T) {
	a, b := stripeObjects()
	log := newMemLog()
	m := NewMirrorEngine(fastCfg(), store.New(), log)
	conn, errc, acks := startPipeMirror(t, m)

	image := transferImage(t, []uint64{5, 5}, a, b)
	sendTransfer(t, conn, 5, 7, image)
	var groups []*wal.Group
	for serial := uint64(6); serial <= 11; serial++ {
		ids := []store.ObjectID{a, b}[:serial%2+1]
		groups = append(groups, groupAt(serial, ids...))
	}
	frames := []*transport.Msg{logFrame(groups[0]), logFrame(groups[1:3]...), logFrame(groups[3:]...)}
	want := append([]byte(nil), image...)
	for _, f := range frames {
		if err := conn.Send(f); err != nil {
			t.Fatal(err)
		}
		want = append(want, f.Payload...)
	}
	for _, serial := range []uint64{8, 11} {
		select {
		case s := <-acks:
			if s != serial {
				t.Fatalf("ack %d, want %d", s, serial)
			}
		case err := <-errc:
			t.Fatalf("session failed: %v", err)
		}
	}
	if !bytes.Equal(log.Bytes(), want) {
		t.Fatalf("mirror log holds %d bytes, want the transfer and the frames as received (%d)", len(log.Bytes()), len(want))
	}

	disk := newMemLog()
	gc := NewGroupCommitter(disk, GroupOptions{})
	defer gc.Close()
	gc.adopt(6, nil)
	for _, g := range groups {
		if err := gc.Commit(g); err != nil {
			t.Fatal(err)
		}
	}
	if got := log.Bytes()[len(want)-len(disk.Bytes()):]; !bytes.Equal(got, disk.Bytes()) {
		t.Fatal("the mirror's stored groups differ from the group committer's log")
	}
}

// TestMirrorRejectsCheckpointInFrame: a state transfer arrives only
// between MsgSnapshotBegin and MsgSnapshotEnd. A checkpoint group inside
// a log frame of a live session would reset the database mid-stream; the
// session fails as corruption with no ack, and the group before it is
// still applied.
func TestMirrorRejectsCheckpointInFrame(t *testing.T) {
	a, b := stripeObjects()
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	conn, errc, acks := startPipeMirror(t, m)
	sendTransfer(t, conn, 5, 5, transferImage(t, []uint64{5, 5}, a))
	if s := <-acks; s != 5 {
		t.Fatalf("ack %d for the transfer, want 5", s)
	}
	f := logFrame(groupAt(6, a))
	// Its serial is the next one, so only its being a checkpoint is wrong.
	f.Payload = append(f.Payload, transferImage(t, []uint64{7, 7}, b)...)
	if err := conn.Send(f); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("Run returned %v, want an error wrapping wal.ErrCorrupt", err)
		}
	case s := <-acks:
		t.Fatalf("ack %d for a frame holding a checkpoint group", s)
	case <-time.After(5 * time.Second):
		t.Fatal("the mirror accepted a checkpoint group in a log frame")
	}
	select {
	case s := <-acks:
		t.Fatalf("ack %d for a frame holding a checkpoint group", s)
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := m.DB().Get(b); ok || m.LastSerial() != 6 {
		t.Fatalf("object b present %v, LastSerial %d: want the image untouched and group 6 applied", ok, m.LastSerial())
	}
}

// TestMirrorRejectsFrameEndingMidGroup: a frame whose last record is not
// a commit leaves a group half received. The mirror must not
// acknowledge the frame's complete groups as if the frame were whole:
// the session fails as corruption, with no ack.
func TestMirrorRejectsFrameEndingMidGroup(t *testing.T) {
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	conn, errc, acks := startPipeMirror(t, m)
	f := logFrame(groupAt(1, 1), groupAt(2, 2))
	f.Payload = f.Payload[:len(f.Payload)-wal.EncodedSize(groupAt(2).Commit)]
	if err := conn.Send(f); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("Run returned %v, want an error wrapping wal.ErrCorrupt", err)
		}
	case s := <-acks:
		t.Fatalf("ack %d for a frame that ends inside a group", s)
	case <-time.After(5 * time.Second):
		t.Fatal("the mirror accepted a frame that ends inside a group")
	}
	select {
	case s := <-acks:
		t.Fatalf("ack %d for a frame that ends inside a group", s)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestSendImageFailsOnStalledJoiner: a joiner that stops reading fails
// the state transfer within the send timeout and leaves the checkpoint
// lock free.
func TestSendImageFailsOnStalledJoiner(t *testing.T) {
	n := NewNode("primary", fastCfg(), newDBWith(5000), newMemLog())
	if err := n.ServePrimary("", LogDisk); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		_, err := n.sendImage(a, 0, 50*time.Millisecond)
		done <- err
	}()
	if msg, err := b.Recv(); err != nil || msg.Type != transport.MsgSnapshotBegin {
		t.Fatalf("first frame %+v, %v", msg, err)
	}
	// Read nothing more: the image is larger than one chunk.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("sendImage succeeded to a joiner that stopped reading")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sendImage blocked on a joiner that stopped reading")
	}
	if _, err := n.CheckpointToDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// TestMirrorTransferAtSyncPointAcksAtOnce: an image whose watermarks all
// equal its serial is consistent as installed, so the mirror acks the
// serial without waiting for a live group.
func TestMirrorTransferAtSyncPointAcksAtOnce(t *testing.T) {
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	conn, _, acks := startPipeMirror(t, m)
	sendTransfer(t, conn, 4, 4, transferImage(t, []uint64{4, 4}, 1, 2, 3))
	select {
	case s := <-acks:
		if s != 4 {
			t.Fatalf("ack %d, want 4", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no ack for the transfer")
	}
	if !m.Synced() || m.DB().Len() != 3 {
		t.Fatalf("synced %v with %d objects, want synced with 3", m.Synced(), m.DB().Len())
	}
}

// TestMirrorRejectsTransferBelowSerial: a transfer at serial 5 whose
// image has a stripe at watermark 4 misses commit 5 there, and nobody
// will ship it; the session fails as corruption.
func TestMirrorRejectsTransferBelowSerial(t *testing.T) {
	m := NewMirrorEngine(fastCfg(), store.New(), newMemLog())
	conn, errc, _ := startPipeMirror(t, m)
	// The mirror reads the whole transfer, end frame included, before it
	// checks the watermarks, so these sends do not block.
	sendTransfer(t, conn, 5, 6, transferImage(t, []uint64{6, 4}, 1))
	select {
	case err := <-errc:
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("Run returned %v, want an error wrapping wal.ErrCorrupt", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mirror accepted a transfer below its serial")
	}
	if m.Synced() {
		t.Fatal("a rejected transfer counts as synced")
	}
}

// TestMirrorRejectsBytesPastTransfer: a state transfer is exactly one
// checkpoint group. Bytes after it, whether junk or a whole log group,
// fail the session as corruption; nothing is installed, acknowledged or
// stored.
func TestMirrorRejectsBytesPastTransfer(t *testing.T) {
	for name, tail := range map[string][]byte{
		"junk":  []byte("junk"),
		"group": groupAt(6, 1).AppendEncoded(nil),
	} {
		t.Run(name, func(t *testing.T) {
			log := newMemLog()
			m := NewMirrorEngine(fastCfg(), store.New(), log)
			conn, errc, acks := startPipeMirror(t, m)
			img := append(transferImage(t, []uint64{5, 5}, 1, 2, 3), tail...)
			sendTransfer(t, conn, 5, 5, img)
			select {
			case err := <-errc:
				if !errors.Is(err, wal.ErrCorrupt) {
					t.Fatalf("Run returned %v, want an error wrapping wal.ErrCorrupt", err)
				}
			case s := <-acks:
				t.Fatalf("ack %d for a transfer with bytes past its checkpoint", s)
			case <-time.After(5 * time.Second):
				t.Fatal("mirror accepted a transfer with bytes past its checkpoint")
			}
			if m.Synced() || m.DB().Len() != 0 || len(log.Bytes()) != 0 {
				t.Fatalf("synced %v, %d objects, %d log bytes: want nothing installed or stored",
					m.Synced(), m.DB().Len(), len(log.Bytes()))
			}
		})
	}
}

// TestMirrorWithoutTransferDoesNotTakeOver: a primary that dies in the
// middle of the state transfer leaves the mirror with nothing it may
// serve. RunMirror must fail instead of promoting an empty database.
func TestMirrorWithoutTransferDoesNotTakeOver(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Recv(); err != nil { // hello
			return
		}
		conn.Send(&transport.Msg{Type: transport.MsgSnapshotBegin, Serial: 3})
		conn.Send(&transport.Msg{Type: transport.MsgSnapshotChunk, Payload: wal.AppendCheckpointRecords(nil, []store.Record{{ID: 1, Value: []byte("partial")}})[:20]})
	}()

	mirror := NewNode("mirror", fastCfg(), store.New(), newMemLog())
	defer mirror.Close()
	done := make(chan error, 1)
	go func() { done <- mirror.RunMirror(l.Addr(), "") }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunMirror returned nil after losing the primary mid-transfer")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunMirror did not return")
	}
	select {
	case ev := <-mirror.Events():
		t.Fatalf("event %v (%s) from a mirror that never synced", ev.Kind, ev.Detail)
	default:
	}
	if mirror.Engine() != nil {
		t.Fatal("an unsynced mirror is serving")
	}
}

// TestTransferCoveredCommitWaitsForMirrorAck: a commit validated before
// a mirror session's swap but settled after it rides in the session's
// state transfer instead of being shipped. It is stable only once the
// mirror acknowledges the transfer's serial.
func TestTransferCoveredCommitWaitsForMirrorAck(t *testing.T) {
	e, _ := newGateEngine(t, nil)
	e.SetCommitter(newGate(nil), LogShip)
	r, err := e.Submit(bump(1))
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- r.Wait() }()

	a, b := transport.Pipe()
	t.Cleanup(func() { b.Close() })
	go func() { // the fake mirror reads (and ignores) pings
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	sh := NewMirrorShipper(a, 2, ShipperOptions{AckTimeout: 10 * time.Second, Heartbeat: 20 * time.Millisecond})
	sh.Start()
	e.SetCommitter(sh, LogShip)
	select {
	case err := <-waited:
		t.Fatalf("covered commit settled (%v) before the mirror acknowledged the transfer", err)
	case <-time.After(50 * time.Millisecond):
	}

	if err := b.SendControl(transport.MsgAck, 1); err != nil {
		t.Fatal(err)
	}
	if err := <-waited; err != nil {
		t.Fatalf("covered commit after the ack: %v", err)
	}
	if got := e.DurableThrough(); got != 1 {
		t.Fatalf("DurableThrough = %d, want 1", got)
	}
	if st := sh.Stats(); st.GroupsShipped != 0 {
		t.Fatalf("shipped %d groups; a covered commit must not be shipped", st.GroupsShipped)
	}
}
