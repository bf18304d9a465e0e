package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// smokeSeconds is a hundredth of a real run.
const smokeSeconds = runSeconds / 100.0

// TestSmoke runs the traced run of all four workloads at 1/100 scale —
// socket, engine and layer pass, both correctness gates, the trace file —
// and checks that every metric BENCHMARK.json names comes out, and that
// the layers a workload is meant to bypass really did nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real nodes on loopback sockets")
	}
	bj := loadBenchmarkJSON(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runOne(runConfig{
				w: w, seed: 1, seconds: smokeSeconds, traced: true,
				traceOut: dir + "/trace.json", buildDir: dir, setups: 1, info: io.Discard,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range bj.EndToEnd {
				mv, ok := res.only(false).Metrics[m.Name]
				if !ok || mv.Unit != m.Unit || mv.Value <= 0 {
					t.Errorf("end-to-end metric %s: %+v (present %v), want a positive value in %s", m.Name, mv, ok, m.Unit)
				}
			}
			layer := res.only(true).Metrics
			if len(layer) != len(bj.PerLayer) {
				t.Errorf("%d per-layer metrics reported, BENCHMARK.json names %d", len(layer), len(bj.PerLayer))
			}
			for _, m := range bj.PerLayer {
				if mv, ok := layer[m.Name]; !ok || mv.Unit != m.Unit {
					t.Errorf("per-layer metric %s: %+v (present %v), want unit %s", m.Name, mv, ok, m.Unit)
				}
			}
			// A bypass prediction is the table in metrics.go: the metric
			// is listed for this workload, hence reported as 0.
			bypassed := func(names ...string) {
				for _, name := range names {
					if v := layer[name].Value; !w.bypasses(name) || v != 0 {
						t.Errorf("%s = %v on %s (listed as bypassed: %v), which bypasses that layer", name, v, w.Name, w.bypasses(name))
					}
				}
			}
			positive := func(names ...string) {
				for _, name := range names {
					if v := layer[name].Value; v <= 0 || w.bypasses(name) {
						t.Errorf("%s = %v on %s, which exercises that layer", name, v, w.Name)
					}
				}
			}
			switch w.Name {
			case "mirrored_mix", "mirrored_update":
				bypassed("logstore.syncs", "logstore.bytes_per_sync", "core.ckpt.cycles")
				positive("transport.bytes_per_commit", "transport.msgs_per_commit", "core.commit.wait_p50_us",
					"core.mirror.log_bytes_per_commit", "wal.bytes_per_update", "core.node.takeover_ms")
			case "transient_update":
				bypassed("transport.bytes_per_commit", "transport.msgs_per_commit", "transport.writes_per_commit",
					"transport.rtt_p50_us", "core.mirror.log_bytes_per_commit")
				positive("logstore.syncs", "logstore.sync_p50_us", "core.commit.syncs_per_commit", "wal.recover_ms")
				if v := layer["occ.ro_fast_commits"].Value; v != 0 {
					t.Errorf("occ.ro_fast_commits = %v on an update-only workload", v)
				}
			case "readonly_translate":
				bypassed("transport.bytes_per_commit", "transport.msgs_per_commit", "logstore.syncs",
					"core.commit.wait_p50_us", "wal.bytes_per_update", "occ.validate_first_ns")
				positive("occ.ro_fast_commits", "occ.readonly_validate_ns", "store.view_ns")
			}
			b, err := os.ReadFile(dir + "/trace.json")
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Ph   string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatalf("trace file does not load: %v", err)
			}
			names := map[string]bool{}
			for _, ev := range tf.TraceEvents {
				names[ev.Name] = true
			}
			for _, want := range []string{"client.request", "core.engine.execute", "txn.body"} {
				if !names[want] {
					t.Errorf("trace file has no %s span", want)
				}
			}
		})
	}
}

// A traced run may report 0 only for a metric it measured as 0 or one
// its workload is listed as bypassing; a metric nobody took fails the run.
func TestUnmeasuredMetricFailsTheRun(t *testing.T) {
	w := findWorkload("transient_update")
	res := &result{Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
	}
	if err := res.settleBypassed(w); err != nil {
		t.Fatalf("every metric measured: %v", err)
	}
	if v := res.Metrics["transport.bytes_per_commit"].Value; v != 0 {
		t.Errorf("transport.bytes_per_commit = %v on a single node, want the bypassed 0", v)
	}
	if v := res.Metrics["logstore.syncs"].Value; v != 1 {
		t.Errorf("logstore.syncs = %v, want the measured 1 left alone", v)
	}
	delete(res.Metrics, "logstore.syncs")
	if err := res.settleBypassed(w); err == nil {
		t.Error("logstore.syncs missing on a disk-logging node: no error")
	}
	delete(res.Metrics, "transport.rtt_p50_us")
	res.Metrics["logstore.syncs"] = metricValue{Value: 1}
	if err := res.settleBypassed(w); err != nil {
		t.Errorf("a bypassed metric nobody measured is still 0, not an error: %v", err)
	}
}

// The checker must notice a reply the model does not allow, and the gate
// a lost update: corrupt what the run expects and see both fail.
func TestCheckerCatchesWrongReply(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real nodes on loopback sockets")
	}
	w := findWorkload("mirrored_mix")
	st := generate(w, 1, smokeSeconds, numConns())

	// One expected TRANSLATE reply of the closed loop now names a version
	// the database never had.
	cs := &st.conns[0]
	var victim *request
	for i := range cs.phases[phaseClosed] {
		if r := &cs.phases[phaseClosed][i]; !r.update {
			victim = r
			break
		}
	}
	if victim == nil {
		t.Fatal("no TRANSLATE in the closed phase")
	}
	cs.arena[victim.wantEnd-1] ^= 1
	// And the model claims one more REROUTE of entry 0 than was ever sent.
	st.after[phaseClosed][0].version++

	sr, err := runSocketPass(w, st, t.TempDir(), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for p := range sr.phases {
		for _, r := range sr.phases[p] {
			wrong += r.wrong
		}
	}
	if wrong != 1 {
		t.Errorf("%d wrong replies counted, want exactly the corrupted one", wrong)
	}
	// Once read back through the mirror, once in the replayed log.
	if len(sr.gate.mismatch) != 2 {
		t.Errorf("gate reports %q, want entry 0 flagged after failover and after recovery", sr.gate.mismatch)
	}
}
