package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/telecom"
	"repro/internal/workload"
)

// request is one pre-generated request line with the one reply the
// reference model allows for it. It holds no pointers, so a million of
// them cost the collector nothing.
type request struct {
	due              int64 // ns after the phase started (open loop only)
	lineOff, lineEnd uint32
	wantOff, wantEnd uint32
	id               uint32
	update           bool
}

// connStream is the part of the stream one connection sends: the
// requests whose id ≡ conn (mod conns), in generation order.
type connStream struct {
	arena  []byte // request lines (newline-terminated) and expected replies
	phases [numPhases][]request
}

func (cs *connStream) line(r *request) []byte { return cs.arena[r.lineOff:r.lineEnd] }
func (cs *connStream) want(r *request) []byte { return cs.arena[r.wantOff:r.wantEnd] }

// entryState is the reference model of one routing entry: how many times
// it was rerouted and to which destination (-1: still as populated).
type entryState struct {
	version uint32
	dest    int32
}

func (e entryState) routed(id int) string {
	if e.dest < 0 {
		return populatedRoute(id)
	}
	return fmt.Sprintf("+35840%07d", e.dest)
}

// populatedRoute is the destination rodaind populates id with.
func populatedRoute(id int) string { return fmt.Sprintf("+35850%07d", id) }

// populatedEntry is the encoded entry rodaind populates id with.
func populatedEntry(id int) []byte {
	return telecom.Encode(&telecom.Entry{Routed: populatedRoute(id), Weight: 100, Active: true, Version: 1})
}

// stream is everything one run sends, generated from the seed alone.
type stream struct {
	conns  []connStream
	counts [numPhases]int
	// after[p] is the model once every request up to and including
	// phase p has been acknowledged.
	after [numPhases][]entryState
	// digest is the SHA-256 of the stream: per connection and phase,
	// every due time and request line.
	digest string
}

// generate builds the request stream of workload w for a run of the given
// length on nconns connections. Arrivals are Poisson at w.OpenRate, ids
// uniform over all dbSize entries (workload.NewGenerator); the seed is
// the only source of randomness.
func generate(w *workloadDef, seed int64, seconds float64, nconns int) *stream {
	counts := w.counts(seconds)
	total := 0
	for _, c := range counts {
		total += c
	}
	gen := workload.NewGenerator(workload.Config{
		ArrivalRate:   w.OpenRate,
		WriteFraction: w.WriteFraction,
		DBSize:        dbSize,
		ReadsPerTxn:   1,
		WritesPerTxn:  1,
		Count:         total,
		Seed:          seed,
	})
	s := &stream{conns: make([]connStream, nconns), counts: counts}
	model := make([]entryState, dbSize)
	for i := range model {
		model[i] = entryState{version: 1, dest: -1}
	}
	updates := 0
	for p := phase(0); p < numPhases; p++ {
		var t0 int64
		for k := 0; k < counts[p]; k++ {
			spec := gen.Next()
			id := int(spec.Reads[0])
			if k == 0 {
				t0 = int64(spec.Arrival)
			}
			cs := &s.conns[id%nconns]
			r := request{id: uint32(id), update: spec.IsWrite()}
			if p == phaseOpen {
				r.due = int64(spec.Arrival) - t0
			}
			e := &model[id]
			r.lineOff = uint32(len(cs.arena))
			if r.update {
				e.dest = int32(updates % 10000000)
				e.version++
				updates++
				cs.arena = append(cs.arena, "REROUTE "...)
				cs.arena = strconv.AppendInt(cs.arena, int64(id), 10)
				cs.arena = append(cs.arena, ' ')
				cs.arena = append(cs.arena, e.routed(id)...)
			} else {
				cs.arena = append(cs.arena, "TRANSLATE "...)
				cs.arena = strconv.AppendInt(cs.arena, int64(id), 10)
			}
			cs.arena = append(cs.arena, '\n')
			r.lineEnd = uint32(len(cs.arena))
			r.wantOff = r.lineEnd
			if r.update {
				cs.arena = append(cs.arena, "OK"...)
			} else {
				cs.arena = append(cs.arena, "OK "...)
				cs.arena = append(cs.arena, e.routed(id)...)
				cs.arena = append(cs.arena, " v"...)
				cs.arena = strconv.AppendUint(cs.arena, uint64(e.version), 10)
			}
			r.wantEnd = uint32(len(cs.arena))
			cs.phases[p] = append(cs.phases[p], r)
		}
		s.after[p] = append([]entryState(nil), model...)
	}
	s.digest = s.hash()
	return s
}

func (s *stream) hash() string {
	h := sha256.New()
	var b [8]byte
	for c := range s.conns {
		cs := &s.conns[c]
		for p := range cs.phases {
			binary.LittleEndian.PutUint64(b[:], uint64(c)<<8|uint64(p))
			h.Write(b[:])
			for i := range cs.phases[p] {
				r := &cs.phases[p][i]
				binary.LittleEndian.PutUint64(b[:], uint64(r.due))
				h.Write(b[:])
				h.Write(cs.line(r))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
