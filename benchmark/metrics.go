package main

import "strings"

// metricDef names one metric of the benchmark. BENCHMARK.json repeats
// these lists for the driver; TestBenchmarkJSONMatches keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// The end-to-end metrics: what a telecom client that keeps the pair busy
// sees. Every workload reports both, with tracing off. Nothing measured
// at the open loop's fixed rate is among them: at a third of capacity
// latency and CPU per request depend on how the guest kernel places the
// mostly idle threads and on what a wake-up of a halted vCPU costs on the
// shared host, and neither repeats from run to run (README "Noise").
var endToEnd = []metricDef{
	{"peak_tps", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// The per-layer metrics of the traced run. The prefix is the package (or
// "client"/"process" for the generator and the Go runtime); the README
// lists which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	// S pass: the generator itself — the validity of every open-loop number.
	{"client.sched_lag_p99_us", "us", "lower", 0},
	{"client.backlog_max", "count", "lower", 0},
	{"client.lat_p50_us", "us", "lower", 0},
	{"client.lat_p99_us", "us", "lower", 0},
	{"client.lat_p999_us", "us", "lower", 0},
	{"client.stall_max_ms", "ms", "lower", 0},
	{"client.deadline_misses", "count", "lower", 0},
	{"client.read_p50_us", "us", "lower", 0},
	{"client.update_p50_us", "us", "lower", 0},
	{"client.update_p99_us", "us", "lower", 0},
	{"client.busy_lat_p50_us", "us", "lower", 0},
	{"client.busy_lat_p95_us", "us", "lower", 0},
	// S pass: getrusage and runtime.MemStats.
	{"process.cpu_us_per_op", "us", "lower", 0},
	{"process.busy_cpu_us_per_op", "us", "lower", 0},
	{"process.allocs_per_op", "count", "lower", 0},
	{"process.alloc_bytes_per_op", "B", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.rss_peak_mb", "MB", "lower", 0},
	// S pass minus E pass, and STATS.
	{"service.request_self_p50_us", "us", "lower", 0},
	{"service.pipeline_depth_mean", "count", "higher", 0},
	{"service.sock_miss", "count", "lower", 0},
	// L and E passes.
	{"sched.admit_ns", "ns", "lower", 0},
	{"sched.queue_pushpop_ns", "ns", "lower", 0},
	{"sched.denied", "count", "lower", 0},
	{"core.engine.execute_p50_us", "us", "lower", 0},
	{"core.engine.execute_p99_us", "us", "lower", 0},
	{"core.engine.self_p50_us", "us", "lower", 0},
	{"core.engine.allocs_per_txn", "count", "lower", 0},
	{"core.engine.restarts_per_txn", "count", "lower", 0},
	{"core.engine.drift_ratio", "ratio", "lower", 0},
	{"txn.body_p50_us", "us", "lower", 0},
	{"telecom.codec_ns", "ns", "lower", 0},
	{"occ.validate_first_ns", "ns", "lower", 0},
	{"occ.validate_last_ns", "ns", "lower", 0},
	{"occ.readonly_validate_ns", "ns", "lower", 0},
	{"occ.ro_fast_commits", "count", "higher", 0},
	{"occ.ro_fallbacks", "count", "lower", 0},
	{"store.view_ns", "ns", "lower", 0},
	{"store.apply_group_ns", "ns", "lower", 0},
	{"store.allocs_per_apply", "count", "lower", 0},
	{"wal.encode_group_ns", "ns", "lower", 0},
	{"wal.bytes_per_update", "B", "lower", 0},
	{"wal.decode_reorder_ns", "ns", "lower", 0},
	{"wal.parallel_apply_ns", "ns", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},
	{"core.commit.wait_p50_us", "us", "lower", 0},
	{"core.commit.wait_p99_us", "us", "lower", 0},
	{"core.commit.queue_delay_p50_us", "us", "lower", 0},
	{"core.commit.cohort_mean", "count", "higher", 0},
	{"core.commit.syncs_per_commit", "ratio", "lower", 0},
	{"transport.msgs_per_commit", "count", "lower", 0},
	{"transport.bytes_per_commit", "B", "lower", 0},
	{"transport.writes_per_commit", "count", "lower", 0},
	{"transport.rtt_p50_us", "us", "lower", 0},
	{"core.mirror.ack_p50_us", "us", "lower", 0},
	{"core.mirror.apply_lag_max", "count", "lower", 0},
	{"core.mirror.log_bytes_per_commit", "B", "lower", 0},
	{"logstore.append_p50_us", "us", "lower", 0},
	{"logstore.sync_p50_us", "us", "lower", 0},
	{"logstore.sync_p99_us", "us", "lower", 0},
	{"logstore.syncs", "count", "lower", 0},
	{"logstore.bytes_per_sync", "B", "higher", 0},
	{"core.ckpt.cycles", "count", "higher", 0},
	{"core.ckpt.pause_max_us", "us", "lower", 0},
	{"core.ckpt.bytes_per_cycle", "B", "lower", 0},
	{"core.ckpt.segments_reclaimed", "count", "higher", 0},
	{"core.ckpt.write_amp", "ratio", "lower", 0},
	{"core.node.mirror_join_ms", "ms", "lower", 0},
	{"core.node.takeover_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// Per-layer metrics that do not exist on a workload: they describe a
// verb it never sends or a layer it never reaches. The driver wants every
// metric from every traced run, so these are reported as 0 there — and
// only these: any other metric a run did not measure fails the run
// (settleBypassed). An entry matches every metric name it is a prefix of.
var (
	// Absent without REROUTEs: the whole commit path.
	updateMetrics = []string{
		"client.update_", "occ.validate_", "wal.encode_group_ns", "wal.bytes_per_update",
		"wal.decode_reorder_ns", "wal.parallel_apply_ns", "store.apply_group_ns", "store.allocs_per_apply",
		"core.commit.", "transport.", "core.mirror.ack_p50_us", "core.mirror.log_bytes_per_commit",
		"logstore.", "core.ckpt.write_amp",
	}
	// Absent without TRANSLATEs.
	readMetrics = []string{"client.read_p50_us", "occ.readonly_validate_ns"}
	// Absent on a single node: shipper, replication socket, mirror.
	pairMetrics = []string{
		"transport.", "core.mirror.", "core.node.mirror_join_ms", "core.node.takeover_ms", "core.commit.queue_delay_p50_us",
	}
	// Absent on a pair: its primary writes no log and takes no checkpoint.
	diskMetrics = []string{"logstore.", "core.ckpt.", "core.commit.syncs_per_commit"}
)

// bypasses reports whether per-layer metric name does not exist on w.
func (w *workloadDef) bypasses(name string) bool {
	var lists [][]string
	if w.WriteFraction == 0 {
		lists = append(lists, updateMetrics)
	}
	if w.WriteFraction == 1 {
		lists = append(lists, readMetrics)
	}
	if w.Pair {
		lists = append(lists, diskMetrics)
	} else {
		lists = append(lists, pairMetrics)
	}
	for _, list := range lists {
		for _, prefix := range list {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
	}
	return false
}
