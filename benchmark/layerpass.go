package main

import (
	"net"
	"runtime"
	"time"

	"repro/internal/occ"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/telecom"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Iteration caps of the layer pass: enough for a steady mean, small
// enough that the pass stays a few seconds.
const (
	layerIters   = 200000 // micro-operations with no state (admit, queue, codec, view)
	layerUpdates = 20000  // update transactions through occ and wal (their cost grows with the count)
	rttSamples   = 2000   // SendBatch→MsgAck round trips
)

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink int

// perOp times n calls of f on one goroutine and returns ns per call.
func perOp(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// runLayerPass (L) calls each layer's public functions directly, on one
// goroutine, with ids and destinations taken from the run's own stream. A
// layer the workload never reaches is not measured and reports 0: no
// commit-path layer on a read-only workload, no read-only validation on
// an update-only one, no transport without a mirror.
func runLayerPass(w *workloadDef, st *stream) map[string]float64 {
	m := map[string]float64{}
	var readIDs, updateIDs []store.ObjectID
	var dests []string
	for c := range st.conns {
		cs := &st.conns[c]
		for p := phaseWarm; p <= phaseClosed; p++ {
			for i := range cs.phases[p] {
				r := &cs.phases[p][i]
				if r.update {
					updateIDs = append(updateIDs, store.ObjectID(r.id))
					dests = append(dests, rerouteDest(cs.line(r)))
				} else {
					readIDs = append(readIDs, store.ObjectID(r.id))
				}
			}
		}
	}
	allIDs := append(append([]store.ObjectID(nil), readIDs...), updateIDs...)
	capped := func(n int) int {
		if n > layerIters {
			return layerIters
		}
		return n
	}

	// sched: every transaction passes admission and the EDF queue.
	ov := sched.NewOverload(sched.OverloadConfig{})
	m["sched.admit_ns"] = perOp(layerIters, func(i int) {
		if ov.Admit(simtime.Time(i)) {
			ov.Done()
		}
	})
	q := sched.NewQueue(0.05)
	qt := make([]*txn.Transaction, 1024)
	for i := range qt {
		qt[i] = txn.New(txn.ID(i+1), txn.Firm, 0, simtime.Time(int64(firmDeadline)+int64(i)))
	}
	m["sched.queue_pushpop_ns"] = perOp(layerIters, func(i int) {
		q.Push(qt[i%len(qt)])
		if q.Pop() != nil {
			sink++
		}
	})

	// telecom: every request decodes an entry; a REROUTE encodes one too.
	enc := populatedEntry(7)
	m["telecom.codec_ns"] = perOp(layerIters, func(int) {
		e, err := telecom.Decode(enc)
		if err == nil {
			sink += len(telecom.Encode(e))
		}
	})

	db := store.New()
	populateStore(db)
	m["store.view_ns"] = perOp(capped(len(allIDs)), func(i int) {
		v, _ := db.View(allIDs[i])
		sink += len(v)
	})

	// occ, read-only fast path: Begin, read, ValidateReadOnly, Finish;
	// the validation alone is timed.
	ctl := occ.NewController(occ.DATI, db)
	var roNs int64
	nRO := capped(len(readIDs))
	for i := 0; i < nRO; i++ {
		t := txn.New(txn.ID(i+1), txn.Firm, 0, txn.NoDeadline)
		t.DeclareReadOnly()
		ctl.Begin(t)
		t.ReadView(db, readIDs[i])
		start := time.Now()
		ctl.ValidateReadOnly(t)
		roNs += int64(time.Since(start))
		ctl.Finish(t)
	}
	if nRO > 0 {
		m["occ.readonly_validate_ns"] = float64(roNs) / float64(nRO)
	}

	// occ + wal, update path: one uncontended transaction after another
	// over the workload's own update ids, up to layerUpdates of them.
	// Validate (serial ticket, timestamp choice, write phase) and the log
	// encoding are timed separately; first against last decile of the
	// validations shows how the cost grows with the commits before it
	// (the engine pass's drift_ratio shows the same over the whole run).
	nUp := len(updateIDs)
	if nUp > layerUpdates {
		nUp = layerUpdates
	}
	validateNs := make([]int64, nUp)
	groups := make([]*wal.Group, 0, nUp)
	var records [][]byte
	var encNs, encBytes int64
	var buf []byte
	for i, id := range updateIDs[:nUp] {
		t := txn.New(txn.ID(nRO+i+1), txn.Firm, 0, txn.NoDeadline)
		ctl.Begin(t)
		v, _ := t.ReadView(db, id)
		if wts, ok := t.ObservedWriteTS(id); ok {
			ctl.OnRead(t, id, wts)
		}
		old, err := telecom.Decode(v)
		if err != nil {
			continue // cannot happen on a populated store
		}
		t.StageWrite(id, telecom.Encode(telecom.Reroute(old, dests[i])))
		ctl.OnWrite(t, id)
		start := time.Now()
		res := ctl.Validate(t)
		validateNs[i] = int64(time.Since(start))
		if res.OK {
			start = time.Now()
			g := &wal.Group{Writes: wal.WriteRecordsFor(t), Commit: wal.CommitRecordFor(t)}
			buf = g.AppendEncoded(buf[:0])
			encNs += int64(time.Since(start))
			encBytes += int64(len(buf))
			groups = append(groups, g)
			for _, rec := range g.Flatten() {
				records = append(records, wal.AppendEncoded(nil, rec))
			}
		}
		ctl.Finish(t)
	}
	if nUp > 0 {
		decile := nUp / 10
		if decile == 0 {
			decile = 1
		}
		m["occ.validate_first_ns"] = meanInt(validateNs[:decile])
		m["occ.validate_last_ns"] = meanInt(validateNs[nUp-decile:])
		m["wal.encode_group_ns"] = float64(encNs) / float64(nUp)
		m["wal.bytes_per_update"] = float64(encBytes) / float64(nUp)

		// The mirror's side of the same records: decode and reorder, then
		// the conflict-aware parallel apply, into a second copy.
		reorder := wal.NewReorderer(1)
		start := time.Now()
		for _, b := range records {
			rec, err := wal.DecodeBytes(b)
			if err != nil {
				continue
			}
			gs, _ := reorder.Add(rec)
			sink += len(gs)
		}
		m["wal.decode_reorder_ns"] = float64(time.Since(start)) / float64(nUp)

		db2 := store.New()
		populateStore(db2)
		applier := wal.NewParallelApplier(db2, wal.DefaultRecoverWorkers(), false)
		start = time.Now()
		for _, g := range groups {
			applier.Apply(g)
		}
		applier.Wait()
		m["wal.parallel_apply_ns"] = float64(time.Since(start)) / float64(nUp)
		applier.Close()

		// store: the write phase alone, one after image per group, over
		// the copy the applier just filled (the same images again).
		ops := make([]store.Op, 1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		m["store.apply_group_ns"] = perOp(len(groups), func(i int) {
			wr := groups[i].Writes[0]
			ops[0] = store.Op{ID: wr.ObjectID, Value: wr.AfterImage}
			db2.ApplyGroup(ops, groups[i].Commit.CommitTS)
		})
		runtime.ReadMemStats(&m1)
		m["store.allocs_per_apply"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(groups))

		if w.Pair {
			m["transport.rtt_p50_us"] = transportRTT(records)
		}
	}
	return m
}

func meanInt(vs []int64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s int64
	for _, v := range vs {
		s += v
	}
	return float64(s) / float64(len(vs))
}

// transportRTT ships one transaction's records (write + commit) in a
// SendBatch over a loopback TCP socket to a peer that does nothing but
// acknowledge commit frames, and returns the median round trip in µs:
// the floor the mirrored commit wait cannot go below.
func transportRTT(records [][]byte) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		peer := transport.New(c)
		defer peer.Close()
		for {
			msg, err := peer.RecvPooled()
			if err != nil {
				return
			}
			serial := msg.Serial
			transport.ReleaseMsg(msg)
			if serial != 0 { // commit records carry their serial; writes carry 0
				if peer.SendControl(transport.MsgAck, serial) != nil {
					return
				}
			}
		}
	}()
	conn, err := transport.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		return 0
	}
	defer conn.Close()
	n := len(records) / 2
	if n > rttSamples {
		n = rttSamples
	}
	rtts := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		batch := []*transport.Msg{
			{Type: transport.MsgRecord, Payload: records[2*i]},
			{Type: transport.MsgRecord, Serial: uint64(i + 1), Payload: records[2*i+1]},
		}
		start := time.Now()
		if conn.SendBatch(batch) != nil {
			break
		}
		ack, err := conn.RecvPooled()
		if err != nil {
			break
		}
		transport.ReleaseMsg(ack)
		rtts = append(rtts, int64(time.Since(start)))
	}
	if len(rtts) == 0 {
		return 0
	}
	return float64(quantile(sortedCopy(rtts), 0.5)) / 1e3
}
