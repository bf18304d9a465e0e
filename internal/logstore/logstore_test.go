package logstore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestFileAppendSyncClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.BytesAppended != 11 || st.Syncs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Fatalf("file contents = %q", data)
	}
	// Operations after close fail (Close is idempotent).
	if err := f.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after close: %v", err)
	}
	if err := f.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestFileAppendsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	var want []byte
	for serial := uint64(1); serial <= 2; serial++ {
		f, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, appendGroups(t, f, serial, 1)...)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := os.ReadFile(path)
	if !bytes.Equal(data, want) {
		t.Fatalf("contents: %d bytes, want %d", len(data), len(want))
	}
}

func TestMemSyncedVsUnsynced(t *testing.T) {
	m := NewMem()
	m.Append([]byte("durable"))
	m.Sync()
	m.Append([]byte(" lost"))
	if string(m.Bytes()) != "durable lost" {
		t.Fatalf("Bytes = %q", m.Bytes())
	}
	if string(m.SyncedBytes()) != "durable" {
		t.Fatalf("SyncedBytes = %q", m.SyncedBytes())
	}
	st := m.Stats()
	if st.BytesAppended != 12 || st.Syncs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemCloseSyncs(t *testing.T) {
	m := NewMem()
	m.Append([]byte("data"))
	m.Close()
	if string(m.SyncedBytes()) != "data" {
		t.Fatal("Close should sync")
	}
	if err := m.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after close: %v", err)
	}
	if err := m.Sync(); err != ErrClosed {
		t.Fatalf("Sync after close: %v", err)
	}
}

func TestDelayedAddsLatencyAndSerializes(t *testing.T) {
	d := NewDelayed(NewMem(), 20*time.Millisecond)
	d.Append([]byte("x"))
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Sync()
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("3 concurrent syncs at 20ms each finished in %v; device must serialize", elapsed)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDelayedForwardsStatsAndTruncation: the latency shim reports its
// device's accounting and truncates it, so a node's checkpoint trigger
// and log truncation work with a simulated disk latency too.
func TestDelayedForwardsStatsAndTruncation(t *testing.T) {
	inner := NewMem()
	var d Store = NewDelayed(inner, 0)
	first := group(1, 1, 1, "x")
	if err := d.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(group(2, 2, 2, "y")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if st, want := d.Stats(), inner.Stats(); st != want || st.Syncs != 1 {
		t.Fatalf("Delayed Stats = %+v, device %+v", st, want)
	}
	if n, err := d.TruncateBelow(1); err != nil || n != len(first) {
		t.Fatalf("TruncateBelow(1) = %d, %v; want %d", n, err, len(first))
	}
	if got := len(inner.Bytes()); got != len(group(2, 2, 2, "y")) {
		t.Fatalf("device holds %d bytes after truncation", got)
	}
}

func TestMemConcurrent(t *testing.T) {
	m := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Append(bytes.Repeat([]byte{'a'}, 10))
				if i%10 == 0 {
					m.Sync()
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Stats().BytesAppended; got != 8*200*10 {
		t.Fatalf("BytesAppended = %d", got)
	}
}

func TestAppendBatchEquivalence(t *testing.T) {
	chunks := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	want := []byte("alphabetagamma")

	m := NewMem()
	if err := m.AppendBatch(chunks); err != nil {
		t.Fatal(err)
	}
	if string(m.Bytes()) != string(want) {
		t.Fatalf("Mem batch contents = %q", m.Bytes())
	}
	if st := m.Stats(); st.BytesAppended != uint64(len(want)) {
		t.Fatalf("Mem BytesAppended = %d, want %d", st.BytesAppended, len(want))
	}

	path := filepath.Join(t.TempDir(), "batch.log")
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AppendBatch(chunks); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.BytesAppended != uint64(len(want)) {
		t.Fatalf("File BytesAppended = %d, want %d", st.BytesAppended, len(want))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(want) {
		t.Fatalf("File batch contents = %q", data)
	}

	inner := NewMem()
	d := NewDelayed(inner, 0)
	if err := d.AppendBatch(chunks); err != nil {
		t.Fatal(err)
	}
	if string(inner.Bytes()) != string(want) {
		t.Fatalf("Delayed batch contents = %q", inner.Bytes())
	}
}

func TestAppendBatchClosed(t *testing.T) {
	m := NewMem()
	m.Close()
	if err := m.AppendBatch([][]byte{[]byte("x")}); err != ErrClosed {
		t.Fatalf("Mem AppendBatch after close: %v", err)
	}
	f, _ := OpenFile(filepath.Join(t.TempDir(), "c.log"))
	f.Close()
	if err := f.AppendBatch([][]byte{[]byte("x")}); err != ErrClosed {
		t.Fatalf("File AppendBatch after close: %v", err)
	}
}

// TestFileStatsConcurrent hammers Append/AppendBatch/Sync while reading
// Stats from another goroutine; under -race this pins the satellite fix
// (the counters are atomics, so Stats never tears or blocks on the
// device mutex).
func TestFileStatsConcurrent(t *testing.T) {
	f, err := OpenFile(filepath.Join(t.TempDir(), "conc.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const writers = 4
	const per = 200
	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})
	readerWg.Add(1)
	go func() { // concurrent Stats reader
		defer readerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = f.Stats()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			for i := 0; i < per; i++ {
				if i%3 == 0 {
					if err := f.AppendBatch([][]byte{[]byte("ab"), []byte("cd")}); err != nil {
						t.Errorf("AppendBatch: %v", err)
						return
					}
				} else if err := f.Append([]byte("abcd")); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if i%17 == 0 {
					if err := f.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
				}
			}
		}()
	}
	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	st := f.Stats()
	if st.BytesAppended != writers*per*4 {
		t.Fatalf("BytesAppended = %d, want %d", st.BytesAppended, writers*per*4)
	}
	if st.Syncs == 0 {
		t.Fatal("no syncs recorded")
	}
}
