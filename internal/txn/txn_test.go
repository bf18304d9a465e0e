package txn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
	"repro/internal/store"
)

func newDB(t *testing.T) *store.Store {
	t.Helper()
	db := store.New()
	db.Put(1, []byte("one"))
	db.Put(2, []byte("two"))
	db.Put(3, []byte("three"))
	return db
}

func TestReadRecordsReadSet(t *testing.T) {
	db := newDB(t)
	db.Apply(2, []byte("two'"), 42)
	tx := New(1, Firm, 0, 1000)
	v, ok := tx.Read(db, 2)
	if !ok || string(v) != "two'" {
		t.Fatalf("Read = %q %v", v, ok)
	}
	rs := tx.ReadSet()
	if len(rs) != 1 || rs[0].ID != 2 || rs[0].WriteTS != 42 {
		t.Fatalf("read set = %+v", rs)
	}
}

func TestReadMissing(t *testing.T) {
	db := newDB(t)
	tx := New(1, Firm, 0, 1000)
	if _, ok := tx.Read(db, 99); ok {
		t.Fatal("read of missing object reported ok")
	}
	if len(tx.ReadSet()) != 0 {
		t.Fatal("missing read should not enter read set")
	}
}

func TestReadYourWrites(t *testing.T) {
	db := newDB(t)
	tx := New(1, Firm, 0, 1000)
	tx.StageWrite(1, []byte("mine"))
	v, ok := tx.Read(db, 1)
	if !ok || string(v) != "mine" {
		t.Fatalf("read-your-writes = %q %v", v, ok)
	}
	// A read satisfied from the workspace must not add a read-set entry:
	// validation conflicts are judged against what was read from the DB.
	if tx.ReadsObject(1) {
		t.Fatal("workspace read polluted the read set")
	}
	// The DB is untouched before the write phase.
	dv, _ := db.Get(1)
	if string(dv) != "one" {
		t.Fatalf("deferred write leaked to db: %q", dv)
	}
}

func TestStageWriteCopies(t *testing.T) {
	db := newDB(t)
	tx := New(1, Firm, 0, 1000)
	img := []byte("abc")
	tx.StageWrite(1, img)
	img[0] = 'X'
	v, _ := tx.Read(db, 1)
	if string(v) != "abc" {
		t.Fatalf("staged image aliased caller memory: %q", v)
	}
}

func TestApplyWritesInstallsAndStampsReads(t *testing.T) {
	db := newDB(t)
	tx := New(1, Firm, 0, 1000)
	tx.Read(db, 2)
	tx.StageWrite(1, []byte("one'"))
	tx.CommitTS = 77
	tx.ApplyWrites(db)

	v, _ := db.Get(1)
	if string(v) != "one'" {
		t.Fatalf("write not applied: %q", v)
	}
	_, wts, _ := db.Timestamps(1)
	if wts != 77 {
		t.Fatalf("writeTS = %d, want 77", wts)
	}
	rts, _, _ := db.Timestamps(2)
	if rts != 77 {
		t.Fatalf("readTS = %d, want 77", rts)
	}
}

func TestDiscardWritesLeavesDBUntouched(t *testing.T) {
	db := newDB(t)
	before := db.Checksum()
	tx := New(1, Firm, 0, 1000)
	tx.Read(db, 1)
	tx.StageWrite(2, []byte("junk"))
	tx.StageWrite(3, []byte("junk2"))
	tx.DiscardWrites()
	if db.Checksum() != before {
		t.Fatal("discard changed the database")
	}
	if len(tx.ReadSet()) != 0 || len(tx.WriteIDs()) != 0 {
		t.Fatal("discard did not clear the workspace")
	}
}

func TestResetForRestart(t *testing.T) {
	tx := New(1, Firm, 5, 1000)
	tx.SetInterval(10, 20)
	tx.MarkDoomed(Conflict)
	tx.CommitTS = 15
	tx.State = Validating
	tx.ResetForRestart()
	if tx.Restarts != 1 {
		t.Fatalf("Restarts = %d", tx.Restarts)
	}
	lo, hi := tx.Interval()
	if lo != 1 || hi != math.MaxUint64 || tx.CommitTS != 0 || tx.State != Created {
		t.Fatalf("restart did not reset: %+v", tx)
	}
	if _, doomed := tx.DoomState(); doomed {
		t.Fatal("restart must clear the doomed flag")
	}
	if tx.Arrival != 5 || tx.Deadline != 1000 {
		t.Fatal("restart must keep arrival and deadline")
	}
}

func TestAbort(t *testing.T) {
	tx := New(1, Firm, 0, 1000)
	tx.StageWrite(1, []byte("x"))
	tx.Abort(Conflict)
	if tx.State != Aborted || tx.Reason != Conflict {
		t.Fatalf("state=%v reason=%v", tx.State, tx.Reason)
	}
	if !tx.ReadOnly() {
		t.Fatal("abort should drop writes")
	}
}

func TestExpired(t *testing.T) {
	tx := New(1, Firm, 0, 100)
	if tx.Expired(100) {
		t.Fatal("deadline instant itself is not expired")
	}
	if !tx.Expired(101) {
		t.Fatal("past deadline should be expired")
	}
	nr := New(2, NonRealTime, 0, NoDeadline)
	if nr.HasDeadline() || nr.Expired(simtime.Never-1) {
		t.Fatal("non-RT transaction must never expire")
	}
}

func TestRereadRefreshesObservedTS(t *testing.T) {
	db := newDB(t)
	tx := New(1, Firm, 0, 1000)
	tx.Read(db, 1)
	db.Apply(1, []byte("newer"), 9)
	tx.Read(db, 1)
	rs := tx.ReadSet()
	if len(rs) != 1 {
		t.Fatalf("re-read duplicated read set: %+v", rs)
	}
	if rs[0].WriteTS != 9 {
		t.Fatalf("observed ts = %d, want 9", rs[0].WriteTS)
	}
}

func TestWriteIDsFirstWriteOrder(t *testing.T) {
	tx := New(1, Firm, 0, 1000)
	tx.StageWrite(5, []byte("a"))
	tx.StageWrite(2, []byte("b"))
	tx.StageWrite(5, []byte("c")) // overwrite keeps original position
	ids := tx.WriteIDs()
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 2 {
		t.Fatalf("WriteIDs = %v", ids)
	}
	img, ok := tx.WriteImage(5)
	if !ok || string(img) != "c" {
		t.Fatalf("WriteImage = %q %v", img, ok)
	}
}

func TestStringers(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Firm.String(), "firm"},
		{Soft.String(), "soft"},
		{NonRealTime.String(), "non-rt"},
		{Class(9).String(), "Class(9)"},
		{Created.String(), "created"},
		{Running.String(), "running"},
		{Validating.String(), "validating"},
		{Writing.String(), "writing"},
		{LogWait.String(), "logwait"},
		{Committed.String(), "committed"},
		{Aborted.String(), "aborted"},
		{State(9).String(), "State(9)"},
		{NoAbort.String(), "none"},
		{DeadlineMiss.String(), "deadline"},
		{Conflict.String(), "conflict"},
		{OverloadDenied.String(), "overload"},
		{NodeFailure.String(), "node-failure"},
		{UserAbort.String(), "user"},
		{AbortReason(9).String(), "AbortReason(9)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Fatalf("String = %q, want %q", c.got, c.want)
		}
	}
	tx := New(7, Firm, 0, 10)
	if tx.String() == "" {
		t.Fatal("empty Stringer")
	}
}

// Property: after any staged-write sequence, ApplyWrites makes the DB
// reflect exactly the last image per object, and DiscardWrites instead
// leaves the DB byte-identical.
func TestPropertyDeferredWrites(t *testing.T) {
	f := func(ops []struct {
		ID  uint8
		Img []byte
	}, discard bool) bool {
		db := store.New()
		for i := 0; i < 16; i++ {
			db.Put(store.ObjectID(i), []byte{byte(i)})
		}
		before := db.Checksum()
		tx := New(1, Firm, 0, NoDeadline)
		last := map[store.ObjectID][]byte{}
		for _, op := range ops {
			id := store.ObjectID(op.ID % 16)
			tx.StageWrite(id, op.Img)
			last[id] = op.Img
		}
		if discard {
			tx.DiscardWrites()
			return db.Checksum() == before
		}
		tx.CommitTS = 1
		tx.ApplyWrites(db)
		for id, want := range last {
			got, ok := db.Get(id)
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestStageDelete(t *testing.T) {
	db := newDB(t)
	tx := New(1, Firm, 0, NoDeadline)
	tx.StageDelete(2)
	if !tx.WritesObject(2) || !tx.IsDelete(2) {
		t.Fatal("delete not in write set")
	}
	if _, ok := tx.Read(db, 2); ok {
		t.Fatal("deferred delete did not hide the object")
	}
	img, ok := tx.WriteImage(2)
	if !ok || img != nil {
		t.Fatalf("tombstone image = %v %v", img, ok)
	}
	tx.CommitTS = 9
	tx.ApplyWrites(db)
	if _, ok := db.Get(2); ok {
		t.Fatal("delete not applied")
	}
	if db.DeletedAt(2) != 9 {
		t.Fatalf("tombstone ts = %d", db.DeletedAt(2))
	}
}

func TestWriteCancelsDelete(t *testing.T) {
	db := newDB(t)
	tx := New(1, Firm, 0, NoDeadline)
	tx.StageDelete(1)
	tx.StageWrite(1, []byte("back"))
	if tx.IsDelete(1) {
		t.Fatal("write did not cancel the delete")
	}
	v, ok := tx.Read(db, 1)
	if !ok || string(v) != "back" {
		t.Fatalf("read = %q %v", v, ok)
	}
	if ids := tx.WriteIDs(); len(ids) != 1 {
		t.Fatalf("write ids = %v", ids)
	}
}

func TestDeleteCancelsWrite(t *testing.T) {
	tx := New(1, Firm, 0, NoDeadline)
	tx.StageWrite(1, []byte("x"))
	tx.StageDelete(1)
	if !tx.IsDelete(1) {
		t.Fatal("delete did not supersede the write")
	}
	if ids := tx.WriteIDs(); len(ids) != 1 {
		t.Fatalf("write ids = %v", ids)
	}
	if tx.ReadOnly() {
		t.Fatal("delete-only txn reported read-only")
	}
}
