package store

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestGetMissing(t *testing.T) {
	s := New()
	if _, ok := s.Get(42); ok {
		t.Fatal("Get on empty store reported ok")
	}
	if _, _, _, ok := s.ViewMeta(42); ok {
		t.Fatal("ViewMeta on empty store reported ok")
	}
	if _, _, ok := s.Timestamps(42); ok {
		t.Fatal("Timestamps on empty store reported ok")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	s.Put(1, []byte("hello"))
	v, ok := s.Get(1)
	if !ok || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put(1, []byte("abc"))
	v, _ := s.Get(1)
	v[0] = 'X'
	v2, _ := s.Get(1)
	if string(v2) != "abc" {
		t.Fatalf("mutating returned slice leaked into store: %q", v2)
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := New()
	in := []byte("abc")
	s.Put(1, in)
	in[0] = 'X'
	v, _ := s.Get(1)
	if string(v) != "abc" {
		t.Fatalf("mutating input slice leaked into store: %q", v)
	}
}

func TestApplyAdvancesWriteTS(t *testing.T) {
	s := New()
	s.Put(1, []byte("v0"))
	s.Apply(1, []byte("v1"), 10)
	_, wts, _ := mustTS(t, s, 1)
	if wts != 10 {
		t.Fatalf("writeTS = %d, want 10", wts)
	}
	// An older (already superseded) apply must not move writeTS backwards.
	s.Apply(1, []byte("v2"), 5)
	_, wts, _ = mustTS(t, s, 1)
	if wts != 10 {
		t.Fatalf("writeTS regressed to %d", wts)
	}
	// ... nor clobber the newer value: write phases of concurrently
	// validated transactions may reach the stripe out of timestamp
	// order, and the store keeps last-writer-wins by commitTS.
	if v, _ := s.Get(1); string(v) != "v1" {
		t.Fatalf("stale apply installed %q over newer value", v)
	}
}

func TestApplyInsertsMissing(t *testing.T) {
	s := New()
	s.Apply(7, []byte("new"), 3)
	v, ok := s.Get(7)
	if !ok || string(v) != "new" {
		t.Fatalf("Apply did not insert: %q %v", v, ok)
	}
}

func TestObserveRead(t *testing.T) {
	s := New()
	s.Put(1, []byte("v"))
	s.ObserveRead(1, 7)
	rts, _, _ := mustTS(t, s, 1)
	if rts != 7 {
		t.Fatalf("readTS = %d, want 7", rts)
	}
	s.ObserveRead(1, 3) // must not regress
	rts, _, _ = mustTS(t, s, 1)
	if rts != 7 {
		t.Fatalf("readTS regressed to %d", rts)
	}
	s.ObserveRead(99, 5) // missing object: no-op
}

func TestDelete(t *testing.T) {
	s := New()
	s.Put(1, []byte("v"))
	if !s.Delete(1) {
		t.Fatal("Delete existing reported false")
	}
	if s.Delete(1) {
		t.Fatal("Delete missing reported true")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete", s.Len())
	}
}

func TestIDsSorted(t *testing.T) {
	s := New()
	for _, id := range []ObjectID{5, 1, 9, 3} {
		s.Put(id, nil)
	}
	ids := s.IDs()
	want := []ObjectID{1, 3, 5, 9}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestSnapshotLoadSnapshotRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Put(ObjectID(i), []byte(fmt.Sprintf("value-%d", i)))
	}
	s.Apply(50, []byte("updated"), 99)

	snap := s.Snapshot()
	s2 := New()
	s2.LoadSnapshot(snap)

	if s.Checksum() != s2.Checksum() {
		t.Fatal("checksums differ after snapshot round trip")
	}
	_, wts, ok := s2.Timestamps(50)
	if !ok || wts != 99 {
		t.Fatalf("writeTS not carried through snapshot: %d %v", wts, ok)
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	s := New()
	s.Put(1, []byte("abc"))
	snap := s.Snapshot()
	snap[0].Value[0] = 'X'
	v, _ := s.Get(1)
	if string(v) != "abc" {
		t.Fatal("snapshot aliases store memory")
	}
}

func TestChecksumDistinguishesBoundaries(t *testing.T) {
	a := New()
	a.Put(1, []byte("ab"))
	a.Put(2, []byte(""))
	b := New()
	b.Put(1, []byte("a"))
	b.Put(2, []byte("b"))
	if a.Checksum() == b.Checksum() {
		t.Fatal("checksum collision on shifted boundaries")
	}
}

func TestChecksumIgnoresReadTS(t *testing.T) {
	a := New()
	a.Put(1, []byte("v"))
	b := New()
	b.Put(1, []byte("v"))
	b.ObserveRead(1, 123)
	if a.Checksum() != b.Checksum() {
		t.Fatal("checksum should not depend on read timestamps")
	}
}

func TestStringer(t *testing.T) {
	s := New()
	s.Put(1, nil)
	if got := s.String(); got != "store{1 objects}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: applying any sequence of writes leaves exactly the last value
// per object visible, regardless of interleaving with reads.
func TestPropertyLastWriteWins(t *testing.T) {
	f := func(writes []struct {
		ID  uint8
		Val []byte
	}) bool {
		s := New()
		last := map[ObjectID][]byte{}
		for i, w := range writes {
			id := ObjectID(w.ID)
			s.Apply(id, w.Val, uint64(i+1))
			last[id] = w.Val
		}
		for id, want := range last {
			got, ok := s.Get(id)
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		return s.Len() == len(last)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/load preserves checksum equality for arbitrary
// contents.
func TestPropertySnapshotPreservesChecksum(t *testing.T) {
	f := func(pairs map[uint16][]byte) bool {
		s := New()
		for id, v := range pairs {
			s.Put(ObjectID(id), v)
		}
		s2 := New()
		s2.LoadSnapshot(s.Snapshot())
		return s.Checksum() == s2.Checksum() && s.Len() == s2.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.Put(ObjectID(i), []byte{byte(i)})
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				id := ObjectID((g*31 + i) % 64)
				if g%2 == 0 {
					s.Apply(id, []byte{byte(i)}, uint64(i))
				} else {
					s.Get(id)
					s.ObserveRead(id, uint64(i))
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func mustTS(t *testing.T, s *Store, id ObjectID) (rts, wts uint64, ok bool) {
	t.Helper()
	rts, wts, ok = s.Timestamps(id)
	if !ok {
		t.Fatalf("object %d missing", id)
	}
	return
}

func TestApplyDeleteTombstone(t *testing.T) {
	s := New()
	s.Put(1, []byte("v"))
	s.Apply(1, []byte("v2"), 5)
	s.ApplyDelete(1, 10)
	if _, ok := s.Get(1); ok {
		t.Fatal("delete did not remove")
	}
	// An older write must not resurrect the object.
	s.Apply(1, []byte("stale"), 7)
	if _, ok := s.Get(1); ok {
		t.Fatal("older write resurrected a deleted object")
	}
	// A newer write recreates it.
	s.Apply(1, []byte("fresh"), 12)
	v, ok := s.Get(1)
	if !ok || string(v) != "fresh" {
		t.Fatalf("newer write blocked: %q %v", v, ok)
	}
	if s.DeletedAt(1) != 10 {
		t.Fatalf("DeletedAt = %d", s.DeletedAt(1))
	}
}

func TestApplyDeleteSupersededByNewerWrite(t *testing.T) {
	s := New()
	s.Apply(1, []byte("new"), 20)
	s.ApplyDelete(1, 10) // an older delete replayed late
	v, ok := s.Get(1)
	if !ok || string(v) != "new" {
		t.Fatal("older delete removed a newer write")
	}
}
