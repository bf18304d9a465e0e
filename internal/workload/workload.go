// Package workload generates the paper's experimental load: a variable
// mix of two transaction types over a number-translation database —
// a simple read-only service-provision transaction that reads a few
// objects and commits, and an update service-provision transaction that
// reads a few objects, updates some of them and commits. Arrivals are
// Poisson; all parameters (arrival rate, write fraction, operations per
// transaction, deadlines) are configurable.
//
// Like the RODAIN prototype, workloads can be generated off-line into a
// test file and replayed through an interface process; see WriteTrace
// and ReadTrace.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/txn"
)

// Config parameterizes a workload.
type Config struct {
	// ArrivalRate is the mean transaction arrival rate, transactions
	// per second (Poisson process).
	ArrivalRate float64
	// WriteFraction is the probability that a transaction is an update
	// service-provision transaction.
	WriteFraction float64
	// DBSize is the number of objects in the database.
	DBSize int
	// ReadsPerTxn is the number of objects a transaction reads.
	ReadsPerTxn int
	// WritesPerTxn is the number of read objects an update transaction
	// rewrites.
	WritesPerTxn int
	// ReadDeadline and WriteDeadline are the relative firm deadlines.
	ReadDeadline  time.Duration
	WriteDeadline time.Duration
	// ValueSize is the after-image size in bytes.
	ValueSize int
	// NonRTFraction is the probability that a transaction has no
	// deadline (runs in the reserved non-real-time share).
	NonRTFraction float64
	// SoftFraction is the probability that a real-time transaction has
	// a soft deadline: it completes late instead of aborting, but the
	// miss is counted.
	SoftFraction float64
	// ChurnFraction is the probability that a transaction is a
	// provisioning-churn transaction: it deprovisions (deletes) one
	// existing service number and provisions (inserts) a fresh one —
	// number ranges being handed back and reassigned.
	ChurnFraction float64
	// Count is the number of transactions in the session.
	Count int
	// Seed makes the trace deterministic.
	Seed int64
}

// Default mirrors the paper's test sessions: 10,000 transactions over a
// 30,000-object number-translation database, 4 reads per transaction,
// 2 updates in write transactions, 50 ms / 150 ms firm deadlines.
func Default() Config {
	return Config{
		ArrivalRate:   200,
		WriteFraction: 0.05,
		DBSize:        30000,
		ReadsPerTxn:   4,
		WritesPerTxn:  2,
		ReadDeadline:  50 * time.Millisecond,
		WriteDeadline: 150 * time.Millisecond,
		ValueSize:     32,
		Count:         10000,
		Seed:          1,
	}
}

// Spec describes one transaction in a trace.
type Spec struct {
	// Arrival is the absolute arrival time.
	Arrival simtime.Time
	// Class is Firm for real-time transactions, NonRealTime otherwise.
	Class txn.Class
	// Deadline is the relative firm deadline (ignored for non-RT).
	Deadline time.Duration
	// Reads are the objects the transaction reads.
	Reads []store.ObjectID
	// Writes are the objects it updates (a subset of Reads for update
	// transactions, empty for read-only ones) or inserts (churn).
	Writes []store.ObjectID
	// Deletes are the objects a churn transaction deprovisions.
	Deletes []store.ObjectID
}

// IsWrite reports whether the spec updates anything.
func (s *Spec) IsWrite() bool { return len(s.Writes) > 0 || len(s.Deletes) > 0 }

// Generator produces Specs deterministically from a Config.
type Generator struct {
	cfg    Config
	rng    *rand.Rand
	now    simtime.Time
	n      int
	nextID store.ObjectID // fresh ids for churn inserts
}

// NewGenerator returns a generator for cfg.
func NewGenerator(cfg Config) *Generator {
	if cfg.DBSize <= 0 {
		cfg.DBSize = 1
	}
	if cfg.ReadsPerTxn <= 0 {
		cfg.ReadsPerTxn = 1
	}
	if cfg.WritesPerTxn > cfg.ReadsPerTxn {
		cfg.WritesPerTxn = cfg.ReadsPerTxn
	}
	return &Generator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		nextID: store.ObjectID(cfg.DBSize), // insert above the preload range
	}
}

// Next returns the next Spec, or nil when the session is complete.
func (g *Generator) Next() *Spec {
	if g.cfg.Count > 0 && g.n >= g.cfg.Count {
		return nil
	}
	g.n++
	// Poisson arrivals: exponential inter-arrival gaps.
	if g.cfg.ArrivalRate > 0 {
		gap := g.rng.ExpFloat64() / g.cfg.ArrivalRate // seconds
		g.now = g.now.Add(simtime.Duration(gap * float64(time.Second)))
	}
	s := &Spec{Arrival: g.now, Class: txn.Firm}
	if g.cfg.NonRTFraction > 0 && g.rng.Float64() < g.cfg.NonRTFraction {
		s.Class = txn.NonRealTime
	} else if g.cfg.SoftFraction > 0 && g.rng.Float64() < g.cfg.SoftFraction {
		s.Class = txn.Soft
	}
	if g.cfg.ChurnFraction > 0 && g.rng.Float64() < g.cfg.ChurnFraction {
		// Provisioning churn: delete one existing number, insert a
		// fresh one. (The delete target may already be gone — a no-op
		// delete, like re-deprovisioning an unassigned number.)
		s.Deadline = g.cfg.WriteDeadline
		s.Deletes = append(s.Deletes, store.ObjectID(g.rng.Intn(g.cfg.DBSize)))
		s.Writes = append(s.Writes, g.nextID)
		g.nextID++
		return s
	}
	isWrite := g.rng.Float64() < g.cfg.WriteFraction
	if isWrite {
		s.Deadline = g.cfg.WriteDeadline
	} else {
		s.Deadline = g.cfg.ReadDeadline
	}
	// Distinct objects per transaction.
	seen := make(map[store.ObjectID]bool, g.cfg.ReadsPerTxn)
	for len(s.Reads) < g.cfg.ReadsPerTxn {
		id := store.ObjectID(g.rng.Intn(g.cfg.DBSize))
		if seen[id] {
			continue
		}
		seen[id] = true
		s.Reads = append(s.Reads, id)
	}
	if isWrite {
		s.Writes = append(s.Writes, s.Reads[:g.cfg.WritesPerTxn]...)
	}
	return s
}

// All generates the whole session.
func (g *Generator) All() []*Spec {
	var specs []*Spec
	for s := g.Next(); s != nil; s = g.Next() {
		specs = append(specs, s)
	}
	return specs
}

// Value builds a deterministic after image for a write of obj by the
// n-th transaction, size cfg.ValueSize.
func (g *Generator) Value(obj store.ObjectID, n int) []byte {
	size := g.cfg.ValueSize
	if size <= 0 {
		size = 8
	}
	v := make([]byte, size)
	copy(v, fmt.Sprintf("v%d-%d", obj, n))
	return v
}

// Populate fills db with cfg.DBSize objects carrying ValueSize-byte
// initial images, the number-translation test database.
func Populate(db *store.Store, cfg Config) {
	size := cfg.ValueSize
	if size <= 0 {
		size = 8
	}
	for i := 0; i < cfg.DBSize; i++ {
		v := make([]byte, size)
		copy(v, fmt.Sprintf("init-%d", i))
		db.Put(store.ObjectID(i), v)
	}
}

// --- Trace files --------------------------------------------------------------

// WriteTrace writes specs as an off-line test file: one line per
// transaction,
//
//	<arrival-ns> <class> <deadline-ns> <reads: a,b,c> <writes: a,b|->
func WriteTrace(w io.Writer, specs []*Spec) error {
	bw := bufio.NewWriter(w)
	for _, s := range specs {
		class := "firm"
		switch s.Class {
		case txn.NonRealTime:
			class = "nonrt"
		case txn.Soft:
			class = "soft"
		}
		if _, err := fmt.Fprintf(bw, "%d %s %d %s %s %s\n",
			int64(s.Arrival), class, int64(s.Deadline), idList(s.Reads), idList(s.Writes), idList(s.Deletes)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func idList(ids []store.ObjectID) string {
	if len(ids) == 0 {
		return "-"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatUint(uint64(id), 10)
	}
	return strings.Join(parts, ",")
}

// ReadTrace parses a test file written by WriteTrace.
func ReadTrace(r io.Reader) ([]*Spec, error) {
	var specs []*Spec
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 && len(fields) != 6 {
			return nil, fmt.Errorf("workload: trace line %d: want 5 or 6 fields, got %d", lineNo, len(fields))
		}
		arrival, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: arrival: %v", lineNo, err)
		}
		var class txn.Class
		switch fields[1] {
		case "firm":
			class = txn.Firm
		case "soft":
			class = txn.Soft
		case "nonrt":
			class = txn.NonRealTime
		default:
			return nil, fmt.Errorf("workload: trace line %d: unknown class %q", lineNo, fields[1])
		}
		deadline, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: deadline: %v", lineNo, err)
		}
		reads, err := parseIDList(fields[3])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: reads: %v", lineNo, err)
		}
		writes, err := parseIDList(fields[4])
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: writes: %v", lineNo, err)
		}
		var deletes []store.ObjectID
		if len(fields) == 6 {
			deletes, err = parseIDList(fields[5])
			if err != nil {
				return nil, fmt.Errorf("workload: trace line %d: deletes: %v", lineNo, err)
			}
		}
		specs = append(specs, &Spec{
			Arrival:  simtime.Time(arrival),
			Class:    class,
			Deadline: time.Duration(deadline),
			Reads:    reads,
			Writes:   writes,
			Deletes:  deletes,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return specs, nil
}

func parseIDList(s string) ([]store.ObjectID, error) {
	if s == "-" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ids := make([]store.ObjectID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, err
		}
		ids = append(ids, store.ObjectID(v))
	}
	return ids, nil
}
