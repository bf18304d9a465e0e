package workload

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/store"
	"repro/internal/txn"
)

func TestGeneratorDeterministic(t *testing.T) {
	cfg := Default()
	cfg.Count = 100
	a := NewGenerator(cfg).All()
	b := NewGenerator(cfg).All()
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("counts = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || len(a[i].Reads) != len(b[i].Reads) ||
			a[i].IsWrite() != b[i].IsWrite() {
			t.Fatalf("spec %d differs between equal seeds", i)
		}
	}
	cfg.Seed = 2
	c := NewGenerator(cfg).All()
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestArrivalsMonotoneAndPoissonish(t *testing.T) {
	cfg := Default()
	cfg.ArrivalRate = 1000
	cfg.Count = 5000
	specs := NewGenerator(cfg).All()
	var prev int64 = -1
	for _, s := range specs {
		if int64(s.Arrival) < prev {
			t.Fatal("arrivals not monotone")
		}
		prev = int64(s.Arrival)
	}
	// Mean rate over the session should be within 10% of nominal.
	span := specs[len(specs)-1].Arrival.Seconds()
	rate := float64(len(specs)) / span
	if math.Abs(rate-1000)/1000 > 0.1 {
		t.Fatalf("observed rate %.1f, want ~1000", rate)
	}
}

func TestWriteFraction(t *testing.T) {
	for _, wf := range []float64{0, 0.2, 0.8, 1} {
		cfg := Default()
		cfg.WriteFraction = wf
		cfg.Count = 4000
		writes := 0
		for _, s := range NewGenerator(cfg).All() {
			if s.IsWrite() {
				writes++
				if s.Deadline != cfg.WriteDeadline {
					t.Fatal("write txn must carry the write deadline")
				}
				if len(s.Writes) != cfg.WritesPerTxn {
					t.Fatalf("writes per txn = %d", len(s.Writes))
				}
			} else if s.Deadline != cfg.ReadDeadline {
				t.Fatal("read txn must carry the read deadline")
			}
		}
		got := float64(writes) / 4000
		if math.Abs(got-wf) > 0.03 {
			t.Fatalf("write fraction %.3f, want %.2f", got, wf)
		}
	}
}

func TestReadsDistinctAndInRange(t *testing.T) {
	cfg := Default()
	cfg.DBSize = 10
	cfg.ReadsPerTxn = 5
	cfg.Count = 200
	for _, s := range NewGenerator(cfg).All() {
		seen := map[store.ObjectID]bool{}
		for _, id := range s.Reads {
			if seen[id] {
				t.Fatal("duplicate read object")
			}
			seen[id] = true
			if int(id) >= cfg.DBSize {
				t.Fatalf("object %d out of range", id)
			}
		}
	}
}

func TestWritesAreSubsetOfReads(t *testing.T) {
	cfg := Default()
	cfg.WriteFraction = 1
	cfg.Count = 100
	for _, s := range NewGenerator(cfg).All() {
		reads := map[store.ObjectID]bool{}
		for _, id := range s.Reads {
			reads[id] = true
		}
		for _, id := range s.Writes {
			if !reads[id] {
				t.Fatal("update transaction wrote an unread object")
			}
		}
	}
}

func TestNonRTFraction(t *testing.T) {
	cfg := Default()
	cfg.NonRTFraction = 0.3
	cfg.Count = 3000
	n := 0
	for _, s := range NewGenerator(cfg).All() {
		if s.Class == txn.NonRealTime {
			n++
		}
	}
	got := float64(n) / 3000
	if math.Abs(got-0.3) > 0.05 {
		t.Fatalf("non-RT fraction %.3f", got)
	}
}

func TestConfigClamping(t *testing.T) {
	g := NewGenerator(Config{Count: 5, ReadsPerTxn: 2, WritesPerTxn: 10, WriteFraction: 1, DBSize: 4})
	for _, s := range g.All() {
		if len(s.Writes) > len(s.Reads) {
			t.Fatal("writes not clamped to reads")
		}
	}
}

func TestPopulateAndValue(t *testing.T) {
	cfg := Default()
	cfg.DBSize = 50
	db := store.New()
	Populate(db, cfg)
	if db.Len() != 50 {
		t.Fatalf("Len = %d", db.Len())
	}
	v, ok := db.Get(7)
	if !ok || len(v) != cfg.ValueSize {
		t.Fatalf("value = %q %v", v, ok)
	}
	g := NewGenerator(cfg)
	img := g.Value(7, 3)
	if len(img) != cfg.ValueSize {
		t.Fatalf("image size = %d", len(img))
	}
}

func TestTraceRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.Count = 200
	cfg.NonRTFraction = 0.1
	specs := NewGenerator(cfg).All()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, specs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("len = %d, want %d", len(got), len(specs))
	}
	for i := range specs {
		a, b := specs[i], got[i]
		if a.Arrival != b.Arrival || a.Class != b.Class || a.Deadline != b.Deadline {
			t.Fatalf("spec %d header mismatch: %+v vs %+v", i, a, b)
		}
		if len(a.Reads) != len(b.Reads) || len(a.Writes) != len(b.Writes) {
			t.Fatalf("spec %d sets mismatch", i)
		}
		for j := range a.Reads {
			if a.Reads[j] != b.Reads[j] {
				t.Fatalf("spec %d read %d mismatch", i, j)
			}
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"1 firm",          // too few fields
		"x firm 5 1,2 -",  // bad arrival
		"1 weird 5 1,2 -", // bad class
		"1 firm x 1,2 -",  // bad deadline
		"1 firm 5 a,b -",  // bad read list
		"1 firm 5 1,2 z",  // bad write list
	}
	for _, c := range cases {
		if _, err := ReadTrace(bytes.NewReader([]byte(c + "\n"))); err == nil {
			t.Fatalf("trace %q accepted", c)
		}
	}
	// Comments and blank lines are fine.
	specs, err := ReadTrace(bytes.NewReader([]byte("# comment\n\n1 soft 5 1,2 -\n")))
	if err != nil || len(specs) != 1 || specs[0].Class != txn.Soft {
		t.Fatalf("specs = %v err = %v", specs, err)
	}
}

func TestSoftFraction(t *testing.T) {
	cfg := Default()
	cfg.SoftFraction = 0.25
	cfg.Count = 3000
	soft := 0
	for _, s := range NewGenerator(cfg).All() {
		if s.Class == txn.Soft {
			soft++
		}
	}
	got := float64(soft) / 3000
	if math.Abs(got-0.25) > 0.05 {
		t.Fatalf("soft fraction %.3f", got)
	}
}

func TestTraceRoundTripSoft(t *testing.T) {
	cfg := Default()
	cfg.Count = 100
	cfg.SoftFraction = 0.5
	specs := NewGenerator(cfg).All()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, specs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if specs[i].Class != got[i].Class {
			t.Fatalf("spec %d class mismatch", i)
		}
	}
}

func TestChurnFraction(t *testing.T) {
	cfg := Default()
	cfg.ChurnFraction = 0.3
	cfg.Count = 3000
	churn := 0
	freshIDs := map[store.ObjectID]bool{}
	for _, s := range NewGenerator(cfg).All() {
		if len(s.Deletes) > 0 {
			churn++
			if len(s.Deletes) != 1 || len(s.Writes) != 1 {
				t.Fatalf("churn spec = %+v", s)
			}
			if int(s.Deletes[0]) >= cfg.DBSize {
				t.Fatal("delete target outside the preload range")
			}
			id := s.Writes[0]
			if int(id) < cfg.DBSize {
				t.Fatal("churn insert inside the preload range")
			}
			if freshIDs[id] {
				t.Fatal("churn insert id reused")
			}
			freshIDs[id] = true
			if !s.IsWrite() {
				t.Fatal("churn spec not a write")
			}
		}
	}
	got := float64(churn) / 3000
	if math.Abs(got-0.3) > 0.05 {
		t.Fatalf("churn fraction %.3f", got)
	}
}

func TestTraceRoundTripChurn(t *testing.T) {
	cfg := Default()
	cfg.Count = 200
	cfg.ChurnFraction = 0.4
	specs := NewGenerator(cfg).All()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, specs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if len(specs[i].Deletes) != len(got[i].Deletes) {
			t.Fatalf("spec %d deletes mismatch", i)
		}
		for j := range specs[i].Deletes {
			if specs[i].Deletes[j] != got[i].Deletes[j] {
				t.Fatalf("spec %d delete %d mismatch", i, j)
			}
		}
	}
}

func TestLegacyFiveFieldTrace(t *testing.T) {
	specs, err := ReadTrace(bytes.NewReader([]byte("1 firm 5 1,2 3\n")))
	if err != nil || len(specs) != 1 || len(specs[0].Deletes) != 0 {
		t.Fatalf("legacy trace: %v %v", specs, err)
	}
}
