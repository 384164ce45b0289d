package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two tables below are the source
// of truth for the program; BENCHMARK.json repeats them for the driver and
// TestBenchmarkJSONAgrees keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, reported with tracing
// off. Bound is the share of the parent's median by which the metric may get
// worse before a change counts as a regression; README.md records the A/A
// table the bounds were set from.
var endToEnd = []metricDef{
	{"throughput_eps", "1/s", "higher", 0.25},
	{"op_s_p50", "s", "lower", 0.25},
	{"op_s_p95", "s", "lower", 0.25},
	{"peak_rss_bytes", "bytes", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by the traced run. A
// metric that a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"sim.step_s", "s", "lower", 0},
	{"insitu.analytics_s", "s", "lower", 0},
	{"insitu.overhead", "ratio", "lower", 0},
	{"insitu.sim_busy_s", "s", "lower", 0},
	{"insitu.analytics_busy_s", "s", "lower", 0},
	{"ringbuf.producer_blocked_s", "s", "lower", 0},
	{"ringbuf.consumer_blocked_s", "s", "lower", 0},
	{"ringbuf.producer_waits", "count", "lower", 0},
	{"ringbuf.feed_copy_s", "s", "lower", 0},
	{"core.run_s", "s", "lower", 0},
	{"core.reduction_cpu_s", "s", "lower", 0},
	{"core.local_combine_s", "s", "lower", 0},
	{"core.global_combine_s", "s", "lower", 0},
	{"core.convert_other_s", "s", "lower", 0},
	{"core.chunks", "count", "lower", 0},
	{"core.max_live_redobjs", "count", "lower", 0},
	{"core.emitted_early", "count", "higher", 0},
	{"core.serialized_bytes", "bytes", "lower", 0},
	{"core.encode_s", "s", "lower", 0},
	{"core.decode_merge_s", "s", "lower", 0},
	{"core.ckpt_write_s", "s", "lower", 0},
	{"core.ckpt_read_s", "s", "lower", 0},
	{"core.ckpt_bytes", "bytes", "lower", 0},
	{"core.scaling_eff", "ratio", "higher", 0},
	{"analytics.ns_per_elem", "ns", "lower", 0},
	{"mpi.allreduce_s", "s", "lower", 0},
	{"mpi.wire_raw_bytes", "bytes", "lower", 0},
	{"mpi.wire_encoded_bytes", "bytes", "lower", 0},
	{"mpi.messages", "count", "lower", 0},
	{"codec.ratio", "ratio", "higher", 0},
	{"codec.encode_s", "s", "lower", 0},
	{"codec.decode_s", "s", "lower", 0},
	{"stream.fire_s", "s", "lower", 0},
	{"stream.ingest_s", "s", "lower", 0},
	{"stream.wm_wait_s", "s", "lower", 0},
	{"stream.windows", "count", "higher", 0},
	{"stream.events", "count", "higher", 0},
	{"stream.late_dropped", "count", "lower", 0},
	{"stream.gen_lateness_s", "s", "lower", 0},
	{"stream.backlog_end", "count", "lower", 0},
	{"serve.queue_wait_s", "s", "lower", 0},
	{"serve.exec_s", "s", "lower", 0},
	{"serve.front_s", "s", "lower", 0},
	{"serve.compile_s", "s", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.small_op_s", "s", "lower", 0},
	{"serve.medium_op_s", "s", "lower", 0},
	{"rt.allocs_per_op", "count", "lower", 0},
	{"rt.alloc_bytes_per_op", "bytes", "lower", 0},
	{"rt.gc_cpu_share", "ratio", "lower", 0},
	{"rt.gc_pause_s", "s", "lower", 0},
	{"obs.trace_overhead", "ratio", "lower", 0},
	{"obs.other_share", "ratio", "lower", 0},
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder are the percentiles a report may quote, lowest first, in
// tenths of a percent so that the rule below is exact.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// supportedPercentile is the reporting rule of the choosing-metrics guide:
// the highest percentile of the ladder with at least ten samples beyond it.
// With fewer than twenty samples not even the median qualifies and it
// returns 0.
func supportedPercentile(n int) float64 {
	best := 0
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}
