package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

func TestSameSeedSameStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := generate(w, 7, 0.5, 2), generate(w, 7, 0.5, 2)
		if a.digest != b.digest {
			t.Errorf("%s: same seed, digests %s and %s", w.Name, a.digest, b.digest)
		}
		for c := range a.conns {
			if !bytes.Equal(a.conns[c].arena, b.conns[c].arena) {
				t.Errorf("%s: same seed, connection %d sends different bytes", w.Name, c)
			}
		}
		if other := generate(w, 8, 0.5, 2); other.digest == a.digest {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.Name)
		}
	}
}

func TestKeyOwnership(t *testing.T) {
	for nconns := 1; nconns <= maxConns; nconns++ {
		st := generate(&workloads[0], 1, 0.5, nconns)
		total := 0
		for c := range st.conns {
			for p := range st.conns[c].phases {
				for _, r := range st.conns[c].phases[p] {
					total++
					if int(r.id)%nconns != c {
						t.Fatalf("%d connections: id %d sent on connection %d", nconns, r.id, c)
					}
				}
			}
		}
		want := 0
		for _, n := range st.counts {
			want += n
		}
		if total != want {
			t.Errorf("%d connections: %d requests generated, counts say %d", nconns, total, want)
		}
	}
}

// The expected replies come from the generator's own model; replay every
// connection against a second, independent one.
func TestExpectedRepliesFollowTheStream(t *testing.T) {
	st := generate(&workloads[0], 3, 1, 2)
	type entry struct {
		routed  string
		version int
	}
	for c := range st.conns {
		cs := &st.conns[c]
		db := map[uint32]*entry{}
		for p := range cs.phases {
			for i := range cs.phases[p] {
				r := &cs.phases[p][i]
				e := db[r.id]
				if e == nil {
					e = &entry{routed: populatedRoute(int(r.id)), version: 1}
					db[r.id] = e
				}
				want := "OK"
				if r.update {
					e.routed, e.version = rerouteDest(cs.line(r)), e.version+1
				} else {
					want = fmt.Sprintf("OK %s v%d", e.routed, e.version)
				}
				if got := string(cs.want(r)); got != want {
					t.Fatalf("connection %d, %q: expected reply %q, replay says %q", c, cs.line(r), got, want)
				}
			}
		}
		for id, e := range db {
			m := st.after[numPhases-1][id]
			if m.routed(int(id)) != e.routed || int(m.version) != e.version {
				t.Fatalf("entry %d: final model %s v%d, replay %s v%d", id, m.routed(int(id)), m.version, e.routed, e.version)
			}
		}
	}
}

func TestOpenLoopScheduleIsPoisson(t *testing.T) {
	w := findWorkload("readonly_translate")
	st := generate(w, 1, 2, 2)
	var last int64
	for c := range st.conns {
		reqs := st.conns[c].phases[phaseOpen]
		for i := 1; i < len(reqs); i++ {
			if reqs[i].due < reqs[i-1].due {
				t.Fatalf("connection %d: due times go backwards at %d", c, i)
			}
		}
		if n := len(reqs); n > 0 && reqs[n-1].due > last {
			last = reqs[n-1].due
		}
	}
	rate := float64(st.counts[phaseOpen]) / (float64(last) / 1e9)
	if rate < 0.9*w.OpenRate || rate > 1.1*w.OpenRate {
		t.Errorf("open loop offers %.0f req/s, want about %.0f", rate, w.OpenRate)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v, %v; Python gives 1.5, 12", q1, q3)
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// BENCHMARK.json is what the driver reads, the tables in this package are
// what the program does; they must say the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, runSeconds %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
		seen[w.Name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, metrics.go %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, metrics.go %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, metrics.go %+v", i, m, d)
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("metric %+v: outside the contract's limits, or named twice", d)
			}
			seen[d.Name] = true
		}
	}
}
