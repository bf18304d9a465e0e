package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricValue is one reported number; the driver reads value and unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, with exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is one invocation: one workload, traced or not.
type runConfig struct {
	w        *workloadDef
	seed     int64
	seconds  float64
	traced   bool
	traceOut string // Chrome trace file of a traced run; "" writes none
	buildDir string // scratch space inside the checkout
	setups   int    // set-ups per run (setupRepeats; the smoke test makes one)
	info     io.Writer
}

func numConns() int {
	n := runtime.NumCPU()
	if n > maxConns {
		n = maxConns
	}
	return n
}

// runOne generates the workload's stream, runs it, checks it, and
// returns the result with every metric it measured (only picks what the
// mode reports). Every run starts with the untraced socket pass, which
// gives the end-to-end metrics. A traced run then makes the traced
// socket pass on a fresh cluster — the same requests again, every
// closed-loop request stamped — and the engine and layer passes; what
// the stamping costs is the two socket passes' peak_tps compared. Notes
// for a human reader go to cfg.info.
func runOne(cfg runConfig) (*result, error) {
	w := cfg.w
	workDir, err := os.MkdirTemp(cfg.buildDir, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	st := generate(w, cfg.seed, cfg.seconds, numConns())
	fmt.Fprintf(cfg.info, "workload %s seed %d: %d connections, requests warm/open/closed/probe %v, stream sha256 %s\n",
		w.Name, cfg.seed, len(st.conns), st.counts, st.digest)

	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	set := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	passStart := time.Now()
	plain, err := runSocketPass(w, st, filepath.Join(workDir, "plain"), false, cfg.setups)
	if err != nil {
		return nil, err
	}
	res.tally("untraced socket pass", plain, cfg.info)
	set("peak_tps", closedTPS(plain.phases[phaseClosed]))
	set("setup_s", median(seconds(plain.setups)))
	open := mergeOpen(st, plain)
	fmt.Fprintf(cfg.info, "  open loop at %.0f req/s: %d requests, median latency %.1f us, %.1f us CPU each; sent-due p99 %.0f us; most requests due but unsent %d in the first half, %d in the second\n",
		w.OpenRate, len(open.all), float64(quantile(open.all, 0.5))/1e3, us(plain.openCPU)/float64(len(open.all)),
		float64(quantile(open.lag, 0.99))/1e3, open.backlog[0], open.backlog[1])
	fmt.Fprintf(cfg.info, "  closed loop, %d in flight per connection: %d requests, %.1f us CPU each\n",
		closedDepth, st.counts[phaseClosed], us(plain.closedCPU)/float64(st.counts[phaseClosed]))
	if !cfg.traced {
		return res, nil
	}
	plainTook := time.Since(passStart)

	passStart = time.Now()
	sr, err := runSocketPass(w, st, filepath.Join(workDir, "traced"), true, 1)
	if err != nil {
		return nil, err
	}
	socketTook := time.Since(passStart)
	res.tally("traced socket pass", sr, cfg.info)
	rec := newRecorder()
	passStart = time.Now()
	er, err := runEnginePass(w, st, workDir, rec)
	if err != nil {
		return nil, err
	}
	engineTook := time.Since(passStart)
	for _, msg := range er.mismatch {
		res.Correct = false
		fmt.Fprintf(cfg.info, "  %s\n", msg)
	}
	passStart = time.Now()
	for name, v := range runLayerPass(w, st) {
		set(name, v)
	}
	fmt.Fprintf(cfg.info, "  passes: untraced socket %.1f s, traced socket %.1f s, engine %.1f s, layer %.1f s\n",
		plainTook.Seconds(), socketTook.Seconds(), engineTook.Seconds(), time.Since(passStart).Seconds())
	socketMetrics(set, st, sr)
	engineMetrics(set, er, rec)
	// What stamping every closed-loop request costs: the same requests
	// on a fresh cluster, untraced against traced. One sample of a
	// difference of two throughputs, so it carries both runs' noise.
	set("trace.overhead_pct", 100*(1-closedTPS(sr.phases[phaseClosed])/closedTPS(plain.phases[phaseClosed])))
	// The front end's own share of a request: what a depth-1 round trip
	// over the socket costs beyond Engine.Execute. A difference of two
	// medians taken in different passes, not a per-request subtraction;
	// the engine's median is over the end of its pass, where the database
	// has seen about as many commits as when the probe runs.
	probe := sortedCopy(pooled(sr.phases[phaseProbe]))
	set("service.request_self_p50_us", float64(quantile(probe, 0.5))/1e3-er.tailExecP50(st.counts[phaseProbe])/1e3)
	set("wal.recover_ms", ms(sr.gate.recover))
	if err := res.settleBypassed(w); err != nil {
		return nil, err
	}
	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return nil, err
		}
		spans := traceSpans(sr, er, rec)
		if err := writeTrace(cfg.traceOut, spans); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(cfg.info, "  trace: %d spans in %s\n", len(spans), cfg.traceOut)
	}
	return res, nil
}

// tally adds one socket pass's requests and verdicts to the result.
func (res *result) tally(pass string, sr *socketResult, info io.Writer) {
	attempted, failed := 0, 0
	for p := range sr.phases {
		for c, r := range sr.phases[p] {
			attempted += r.attempted
			failed += r.failed
			if r.wrong > 0 {
				res.Correct = false
			}
			if r.firstBad != "" {
				fmt.Fprintf(info, "  %s phase, connection %d: %d failed (%d wrong), first: %s\n",
					phaseNames[p], c, r.failed, r.wrong, r.firstBad)
			}
		}
	}
	for _, msg := range sr.gate.mismatch {
		res.Correct = false
		fmt.Fprintf(info, "  gate: %s\n", msg)
	}
	res.Attempted += attempted
	res.Failed += failed
	fmt.Fprintf(info, "  %s: failed/attempted %d/%d, %d open-loop replies later than %d ms; gate compared %d entries after crash (takeover %.2f ms, recovery %.1f ms)\n",
		pass, failed, attempted, lateReplies(sr), deadlineMs, sr.gate.checked, ms(sr.gate.takeover), ms(sr.gate.recover))
}

// lateReplies counts the open-loop replies that were right but came more
// than firmDeadline after their request was due.
func lateReplies(sr *socketResult) int {
	late := 0
	for _, r := range sr.phases[phaseOpen] {
		late += r.late
	}
	return late
}

// settleBypassed finishes the per-layer metrics of a traced run. A
// metric of a layer the workload bypasses (metrics.go) is 0 by
// definition, whatever a pass computed for it; every other one must have
// been measured, so that a 0 in a result is never a number nobody took.
func (res *result) settleBypassed(w *workloadDef) error {
	for _, d := range perLayer {
		if w.bypasses(d.Name) {
			res.Metrics[d.Name] = metricValue{Value: 0, Unit: d.Unit}
		} else if _, ok := res.Metrics[d.Name]; !ok {
			return fmt.Errorf("%s: per-layer metric %s was not measured", w.Name, d.Name)
		}
	}
	return nil
}

// only returns res with just the metrics its mode reports: the
// end-to-end list with tracing off, the per-layer list of a traced run.
func (res *result) only(traced bool) *result {
	list := endToEnd
	if traced {
		list = perLayer
	}
	out := &result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range list {
		out.Metrics[d.Name] = res.Metrics[d.Name]
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// openLoop is the open-loop phase with the connections merged; every
// slice is sorted.
type openLoop struct {
	all     []int64 // latencies, due time to reply
	reads   []int64
	updates []int64
	lag     []int64 // sent − due
	backlog [2]int
}

func mergeOpen(st *stream, sr *socketResult) *openLoop {
	o := &openLoop{}
	for c, r := range sr.phases[phaseOpen] {
		reqs := st.conns[c].phases[phaseOpen]
		for i, l := range r.lat {
			if reqs[i].update {
				o.updates = append(o.updates, l)
			} else {
				o.reads = append(o.reads, l)
			}
			o.lag = append(o.lag, r.sent[i]-reqs[i].due)
		}
		o.all = append(o.all, r.lat...)
		for h := range o.backlog {
			if r.backlogMax[h] > o.backlog[h] {
				o.backlog[h] = r.backlogMax[h]
			}
		}
	}
	for _, vs := range []*[]int64{&o.all, &o.reads, &o.updates, &o.lag} {
		*vs = sortedCopy(*vs)
	}
	return o
}

// closedTPS is requests per second of the closed loop: each connection's
// requests over the time it took to get them answered, added up. (The
// connections do not finish together; dividing the total by the longest
// time would count the last one's tail as if all were still sending.)
func closedTPS(conns []*connResult) float64 {
	rate := 0.0
	for _, r := range conns {
		if r.took > 0 {
			rate += float64(r.attempted) / r.took.Seconds()
		}
	}
	return rate
}

// pooled is every latency the connections recorded in a stamped closed
// loop.
func pooled(conns []*connResult) []int64 {
	var out []int64
	for _, r := range conns {
		out = append(out, r.lat...)
	}
	return out
}

var (
	statsDepth = regexp.MustCompile(`pdepth=([0-9.]+)/`)
	statsMiss  = regexp.MustCompile(`sockmiss=([0-9]+)`)
)

// socketMetrics reports the per-layer numbers of the traced socket pass.
func socketMetrics(set func(string, float64), st *stream, sr *socketResult) {
	o := mergeOpen(st, sr)
	all, n := o.all, float64(len(o.all))
	set("client.sched_lag_p99_us", float64(quantile(o.lag, 0.99))/1e3)
	backlog := o.backlog[0]
	if o.backlog[1] > backlog {
		backlog = o.backlog[1]
	}
	set("client.backlog_max", float64(backlog))
	set("client.lat_p50_us", float64(quantile(all, 0.5))/1e3)
	set("client.lat_p99_us", float64(quantile(all, 0.99))/1e3)
	set("client.lat_p999_us", float64(quantile(all, 0.999))/1e3)
	set("client.stall_max_ms", float64(all[len(all)-1])/1e6)
	set("client.deadline_misses", float64(lateReplies(sr)))
	if len(o.reads) > 0 {
		set("client.read_p50_us", float64(quantile(o.reads, 0.5))/1e3)
	}
	if len(o.updates) > 0 {
		set("client.update_p50_us", float64(quantile(o.updates, 0.5))/1e3)
		set("client.update_p99_us", float64(quantile(o.updates, 0.99))/1e3)
	}
	busy := sortedCopy(pooled(sr.phases[phaseClosed]))
	set("client.busy_lat_p50_us", float64(quantile(busy, 0.50))/1e3)
	set("client.busy_lat_p95_us", float64(quantile(busy, 0.95))/1e3)
	set("process.cpu_us_per_op", us(sr.openCPU)/n)
	set("process.busy_cpu_us_per_op", us(sr.closedCPU)/float64(st.counts[phaseClosed]))
	set("process.allocs_per_op", float64(sr.openMem.mallocs)/n)
	set("process.alloc_bytes_per_op", float64(sr.openMem.bytes)/n)
	set("process.gc_pause_ms", ms(sr.gcPause))
	set("process.rss_peak_mb", float64(sr.rssPeakKiB)/1024)
	if m := statsDepth.FindStringSubmatch(sr.statsLine); m != nil {
		v, _ := strconv.ParseFloat(m[1], 64)
		set("service.pipeline_depth_mean", v)
	}
	if m := statsMiss.FindStringSubmatch(sr.statsLine); m != nil {
		v, _ := strconv.ParseFloat(m[1], 64)
		set("service.sock_miss", v)
	}
	set("occ.ro_fast_commits", float64(sr.dbAfter.ROFastCommits-sr.dbBefore.ROFastCommits))
	set("occ.ro_fallbacks", float64(sr.dbAfter.ROFallbacks-sr.dbBefore.ROFallbacks))
	set("core.node.mirror_join_ms", ms(sr.mirrorJoin))
	set("core.node.takeover_ms", ms(sr.gate.takeover))
}

// tailExecP50 is the median Engine.Execute time, in ns, of the last n
// transactions of the engine pass (n split over the connections).
func (er *engineResult) tailExecP50(n int) float64 {
	var exec []int64
	per := n/len(er.perConn) + 1
	for _, conn := range er.perConn {
		from := len(conn) - per
		if from < 0 {
			from = 0
		}
		for i := from; i < len(conn); i++ {
			exec = append(exec, conn[i].exec)
		}
	}
	if len(exec) == 0 {
		return 0
	}
	return float64(quantile(sortedCopy(exec), 0.5))
}

// engineMetrics reports the per-layer numbers of the engine pass.
func engineMetrics(set func(string, float64), er *engineResult, rec *recorder) {
	var exec, self, body, cwait []int64
	var first, last []int64 // execute times, first and last decile of the drift population
	for _, conn := range er.perConn {
		var drift []int64
		for i := range conn {
			t := &conn[i]
			exec = append(exec, t.exec)
			body = append(body, t.body)
			self = append(self, t.exec-t.body-t.cwait)
			if t.update {
				cwait = append(cwait, t.cwait)
			}
			if t.update || er.commits == 0 {
				drift = append(drift, t.exec)
			}
		}
		decile := len(drift) / 10
		first = append(first, drift[:decile]...)
		last = append(last, drift[len(drift)-decile:]...)
	}
	p := func(vs []int64, q float64) float64 {
		if len(vs) == 0 {
			return 0
		}
		return float64(quantile(sortedCopy(vs), q)) / 1e3
	}
	set("core.engine.execute_p50_us", p(exec, 0.5))
	set("core.engine.execute_p99_us", p(exec, 0.99))
	set("core.engine.self_p50_us", p(self, 0.5))
	set("txn.body_p50_us", p(body, 0.5))
	set("core.engine.allocs_per_txn", float64(er.mallocs)/float64(er.txns))
	set("core.engine.restarts_per_txn", float64(er.restarts)/float64(er.txns))
	if f := p(first, 0.5); f > 0 {
		set("core.engine.drift_ratio", p(last, 0.5)/f)
	}
	set("sched.denied", float64(er.denied))
	set("core.commit.wait_p50_us", p(cwait, 0.5))
	set("core.commit.wait_p99_us", p(cwait, 0.99))
	set("core.commit.queue_delay_p50_us", us(er.queueDelayP50))
	set("core.commit.cohort_mean", er.cohortMean)
	set("core.mirror.apply_lag_max", float64(er.applyLagMax))
	set("core.mirror.ack_p50_us", p(rec.durations("core.mirror.ack"), 0.5))
	set("logstore.append_p50_us", p(rec.durations("logstore.append"), 0.5))
	syncs := rec.durations("logstore.sync")
	set("logstore.sync_p50_us", p(syncs, 0.5))
	set("logstore.sync_p99_us", p(syncs, 0.99))
	set("logstore.syncs", float64(er.logSyncs))
	if er.logSyncs > 0 {
		set("logstore.bytes_per_sync", float64(er.logBytes)/float64(er.logSyncs))
	}
	set("core.ckpt.cycles", float64(er.ckptCycles))
	set("core.ckpt.pause_max_us", us(er.ckptPauseMax))
	perCycle := 0.0 // a run too short for a cycle wrote no checkpoint bytes either
	if er.ckptCycles > 0 {
		perCycle = float64(er.ckptBytes) / float64(er.ckptCycles)
	}
	set("core.ckpt.bytes_per_cycle", perCycle)
	set("core.ckpt.segments_reclaimed", float64(er.segmentsReclaimed))
	if er.commits > 0 {
		c := float64(er.commits)
		set("core.commit.syncs_per_commit", float64(er.logSyncs)/c)
		set("transport.msgs_per_commit", float64(er.shipRecords)/c)
		set("transport.bytes_per_commit", float64(er.sockBytes)/c)
		set("transport.writes_per_commit", float64(er.sockWrites)/c)
		set("core.mirror.log_bytes_per_commit", float64(er.mirrorLogBytes)/c)
		if er.logBytes > 0 {
			// Bytes the node put on disk (log and checkpoints) per byte
			// of after image the clients committed.
			set("core.ckpt.write_amp", float64(er.logBytes+er.ckptBytes)/(c*float64(len(populatedEntry(0)))))
		}
	}
}

// traceSpans turns the passes' timings into spans for the trace file,
// thinned evenly to about maxTraceEvents: half for the spans the wrappers
// recorded (socket, log device, checkpoints), half for per-request and
// per-transaction ones (every k-th request keeps all of its spans).
func traceSpans(sr *socketResult, er *engineResult, rec *recorder) []span {
	var spans []span
	every := len(rec.spans)/(maxTraceEvents/2) + 1
	for i := 0; i < len(rec.spans); i += every {
		spans = append(spans, rec.spans[i])
	}
	n := 0
	for _, p := range []phase{phaseClosed, phaseProbe} {
		for _, r := range sr.phases[p] {
			n += len(r.lat)
		}
	}
	for _, conn := range er.perConn {
		n += 3 * len(conn)
	}
	every = n/(maxTraceEvents/2) + 1
	// Socket pass: the closed loop and the depth-1 probe.
	// Their clock starts with their phase, not with the recorder, so each
	// gets a row that says so.
	for _, p := range []phase{phaseClosed, phaseProbe} {
		for c, r := range sr.phases[p] {
			track := fmt.Sprintf("S %s conn %d (phase clock)", phaseNames[p], c)
			for i := 0; i < len(r.lat); i += every {
				spans = append(spans, span{name: "client.request", track: track, start: r.sent[i], dur: r.lat[i], id: int64(i)})
			}
		}
	}
	for c, conn := range er.perConn {
		track := fmt.Sprintf("E conn %d", c)
		for i := 0; i < len(conn); i += every {
			t := &conn[i]
			id := int64(t.txn)
			spans = append(spans, span{name: "core.engine.execute", track: track, start: t.at, dur: t.exec, id: id})
			// The body runs on an engine worker somewhere inside the
			// execute span and only its length is known; it is drawn at
			// the span's start.
			spans = append(spans, span{name: "txn.body", track: track, start: t.at, dur: t.body, id: id, parent: "core.engine.execute"})
			if t.cwait > 0 {
				spans = append(spans, span{name: "core.commit.wait", track: track, start: t.cwAt, dur: t.cwait, id: id, parent: "core.engine.execute"})
			}
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	return spans
}
