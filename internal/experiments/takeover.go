package experiments

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// diskReadBandwidth models the sequential read rate of the prototype
// era's disk when a restarting node reloads its database image and log
// tail — the part of single-node recovery the paper says makes the
// database "down much longer".
const diskReadBandwidth = 20 << 20 // 20 MiB/s

// throttledReader limits r to a byte rate, simulating a disk read. It
// accumulates the owed delay and sleeps in ≥1 ms slices, because tiny
// per-read sleeps round up to the scheduler's granularity and would
// overstate the throttle by orders of magnitude.
type throttledReader struct {
	r       io.Reader
	perByte time.Duration
	debt    time.Duration
}

func newThrottledReader(r io.Reader, bytesPerSec int) *throttledReader {
	return &throttledReader{r: r, perByte: time.Second / time.Duration(bytesPerSec)}
}

func (t *throttledReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		t.debt += time.Duration(n) * t.perByte
		if t.debt >= time.Millisecond {
			simtime.SleepOn(simtime.Wall, t.debt)
			t.debt = 0
		}
	}
	return n, err
}

// TakeoverResult is one row of the availability comparison.
type TakeoverResult struct {
	Objects       int
	LogRecords    int
	TakeoverTime  time.Duration // crash → promoted node commits
	DetectionTime time.Duration // crash → takeover event (watchdog)
	RecoveryTime  time.Duration // load checkpoint + replay log from disk
}

// Takeover runs the availability experiment behind the paper's closing
// claim: "the Mirror Node can almost instantaneously serve incoming
// requests", while a node recovering from the backup on disk "would be
// down much longer". For each database size it measures (a) real mirror
// takeover on a live pair over loopback TCP and (b) restart recovery —
// reading a checkpoint plus log tail through a disk-bandwidth-limited
// reader.
func Takeover(sizes []int, logTail int) ([]TakeoverResult, error) {
	if len(sizes) == 0 {
		sizes = []int{10000, 30000, 100000}
	}
	if logTail <= 0 {
		logTail = 2000
	}
	var out []TakeoverResult
	for _, size := range sizes {
		r, err := takeoverOne(size, logTail)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

func takeoverOne(objects, logTail int) (TakeoverResult, error) {
	res := TakeoverResult{Objects: objects, LogRecords: logTail}

	// --- (b) restart recovery through the disk --------------------------
	wl := workload.Default()
	wl.DBSize = objects
	db := store.New()
	workload.Populate(db, wl)

	// The disk image is a checkpoint at serial 0.
	ckpt := bytes.NewBuffer(wal.AppendCheckpointRecords(nil, db.Snapshot()))
	if err := wal.WriteCheckpointTrailer(ckpt, make([]uint64, db.NumStripes())); err != nil {
		return res, err
	}
	// A log tail of update transactions past the checkpoint.
	var tail bytes.Buffer
	for i := 0; i < logTail; i++ {
		id := store.ObjectID(i % objects)
		if err := wal.Encode(&tail, &wal.Record{
			Type: wal.TypeWrite, TxnID: 1 + txnID(i), ObjectID: id,
			AfterImage: []byte(fmt.Sprintf("upd-%d", i)),
		}); err != nil {
			return res, err
		}
		if err := wal.Encode(&tail, &wal.Record{
			Type: wal.TypeCommit, TxnID: 1 + txnID(i),
			SerialOrder: uint64(i + 1), CommitTS: uint64(i+1) * 65536,
		}); err != nil {
			return res, err
		}
	}

	// The checkpoint is the log's first group, so one replay installs it
	// and redoes the tail.
	start := simtime.Wall.Now()
	disk := io.MultiReader(ckpt, bytes.NewReader(tail.Bytes()))
	if _, err := wal.Recover(bufio.NewReaderSize(
		newThrottledReader(disk, diskReadBandwidth), 64<<10), store.New()); err != nil {
		return res, err
	}
	res.RecoveryTime = simtime.Wall.Now().Sub(start)

	// --- (a) live mirror takeover ---------------------------------------
	cfg := core.Config{
		Workers:         2,
		HeartbeatEvery:  25 * time.Millisecond,
		HeartbeatMisses: 4,
	}
	pdb := store.New()
	workload.Populate(pdb, wl)
	primary := core.NewNode("primary", cfg, pdb, logstore.NewMem())
	if err := primary.ServePrimary("127.0.0.1:0", core.LogDisk); err != nil {
		return res, err
	}
	mirror := core.NewNode("mirror", cfg, store.New(), logstore.NewMem())
	go mirror.RunMirror(primary.ReplAddr(), "")
	defer mirror.Close()

	if err := waitFor(primary, core.EventMirrorAttached, 10*time.Second); err != nil {
		return res, err
	}
	// A little committed traffic before the failure.
	for i := 0; i < 20; i++ {
		if err := primary.Execute(core.Request{Deadline: time.Second, Do: func(tx *core.Tx) error {
			return tx.Write(store.ObjectID(i), []byte("pre-crash"))
		}}); err != nil {
			return res, err
		}
	}

	crash := simtime.Wall.Now()
	primary.Crash()
	if err := waitFor(mirror, core.EventTakeover, 10*time.Second); err != nil {
		return res, err
	}
	res.DetectionTime = simtime.Wall.Now().Sub(crash)
	// First transaction on the promoted node.
	if err := mirror.Execute(core.Request{Deadline: time.Second, Do: func(tx *core.Tx) error {
		return tx.Write(1, []byte("post-takeover"))
	}}); err != nil {
		return res, err
	}
	res.TakeoverTime = simtime.Wall.Now().Sub(crash)
	return res, nil
}

func txnID(i int) txn.ID { return txn.ID(i) }

func waitFor(n *core.Node, kind core.EventKind, within time.Duration) error {
	deadline := make(chan struct{})
	cancel := simtime.Wall.AfterFunc(within, func() { close(deadline) })
	defer cancel()
	for {
		select {
		case ev := <-n.Events():
			if ev.Kind == kind {
				return nil
			}
		case <-deadline:
			return fmt.Errorf("experiments: node %s: no %v within %v", n.Name(), kind, within)
		}
	}
}

// TakeoverTable renders the availability comparison.
func TakeoverTable(rs []TakeoverResult) *metrics.Table {
	t := &metrics.Table{
		Title:  "takeover vs restart recovery (availability, §4 closing claim)",
		Header: []string{"objects", "log tail", "mirror takeover", "(detection)", "restart recovery"},
	}
	for _, r := range rs {
		t.AddRow(
			fmt.Sprintf("%d", r.Objects),
			fmt.Sprintf("%d", r.LogRecords),
			r.TakeoverTime.Round(100*time.Microsecond).String(),
			r.DetectionTime.Round(100*time.Microsecond).String(),
			r.RecoveryTime.Round(time.Millisecond).String(),
		)
	}
	return t
}
