package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/scipioneer/smart/internal/obs"
)

// workload is one set of inputs the benchmark runs. build generates the
// inputs from the seed and constructs the system under test; it is called
// once per set-up round, so everything a user pays before the first op is
// inside it (or inside the first repetition).
type workload interface {
	build() (instance, error)
}

// instance is one constructed system under test.
type instance interface {
	// rep runs one repetition of frozen size and appends its ops to res;
	// res.rec is nil unless the repetition is traced.
	rep(res *result) error
	// verify runs the oracle over the outputs the last rep kept, counts the
	// ops it checked and the ones that failed, and drops the outputs. It is
	// never timed.
	verify(res *result)
	close()
}

// calibrator is implemented by instances that make extra calls into single
// layers in the traced run (a bare simulation, a calibration allreduce, a
// direct Compile); their spans carry op 0 and never enter an op's table.
type calibrator interface {
	calibrate(res *result) error
}

// workloadDefs lists the workloads in report order; why is the one line
// BENCHMARK.json repeats.
var workloadDefs = []struct {
	name string
	why  string
	make func(seed uint64, sz sizes, scratch string) workload
}{
	{"insitu-time-kmeans", "time sharing, compute-bound reduction over a handful of keys: the paper's headline step overhead; combine, wire and serve do nothing here", newKMeansWorkload},
	{"insitu-space-movingavg", "space sharing, about one key per element with early emission and ring-buffer back-pressure: reduction-store bound, bypasses combine and serve", newMovingAvgWorkload},
	{"combine-wide-hist", "2 TCP ranks merging 65,536-key maps every step: serialisation, codec, loopback wire and tree merge dominate, reduction is small", newCombineWorkload},
	{"serve-mixed", "2 closed-loop HTTP clients, 80% small histogram and 20% medium k-means jobs: HTTP/JSON, queue, WFQ and Compile overhead on the median", newServeWorkload},
	{"stream-sliding", "sliding(10,1) moments with 5% late and 1% dropped events, saturated then paced: the only workload that enters the stream layer", newStreamWorkload},
	{"recover-ckpt", "checkpoint write, restore into a fresh scheduler and byte comparison of a 262,144-key map: encode beside decode, and the disk", newCkptWorkload},
}

// result accumulates what the repetitions of one run measured.
type result struct {
	ops     []float64 // op latencies in seconds, tracing off and on alike
	checked int       // ops the oracle compared against its reference
	failed  int       // ops that errored, were refused, or failed the oracle
	// rec is set for the traced repetitions; ops from tracedFrom on were
	// measured with it.
	rec        *recorder
	tracedFrom int
	// layer holds the per-layer samples of the traced repetitions; a metric
	// is reported as the median of its samples.
	layer map[string][]float64
	// throughputs holds one sample per timed stretch of a repetition (input
	// elements fully analysed over its wall clock), tails one per
	// repetition (the 95th percentile of its ops).
	throughputs, tails []float64
	// peaks holds, per repetition, the resident-size high-water mark it
	// reached, where the kernel lets the mark be reset.
	peaks []float64
}

// work adds one throughput sample: elems input elements were fully analysed
// in wall.
func (r *result) work(elems int, wall time.Duration) {
	r.throughputs = append(r.throughputs, float64(elems)/wall.Seconds())
}

func (r *result) op(seconds float64) { r.ops = append(r.ops, seconds) }

// tracing tells rep to take the layer read-outs, which cost nothing to leave
// out when tracing is off.
func (r *result) tracing() bool { return r.rec != nil }

// traced are the ops measured while tracing.
func (r *result) traced() []float64 {
	if !r.tracing() {
		return nil
	}
	return r.ops[r.tracedFrom:]
}

// observe adds one sample of a per-layer metric; untraced repetitions drop it.
func (r *result) observe(name string, v float64) {
	if !r.tracing() {
		return
	}
	if r.layer == nil {
		r.layer = make(map[string][]float64)
	}
	r.layer[name] = append(r.layer[name], v)
}

// fail counts one failed op and says why on standard error.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(stderr, "bench: FAILED op: "+format+"\n", args...)
	}
}

// report is what one run of one workload prints.
type report struct {
	Workload  string
	Traced    bool
	Attempted int // timed ops, the samples behind op_s_p50
	Failed    int
	Checked   int
	Reps      int // repetitions behind op_s_p95 and peak_rss_bytes
	Stretches int // timed stretches behind throughput_eps
	Values    map[string]float64
	Samples   map[string]int // samples behind each per-layer metric
	Layers    []layerRow
	OpMean    time.Duration
	LayerSum  time.Duration
	TracePath string
}

// setupRounds is how often a run builds the system and warms it up; setup_s
// is the median, as the set-up of one round alone is too noisy to bound.
const setupRounds = 3

// runWorkload measures one workload for about the given number of seconds.
func runWorkload(name string, seed uint64, seconds float64, traced bool, sz sizes, outDir string) (*report, error) {
	var w workload
	for _, d := range workloadDefs {
		if d.name == name {
			w = d.make(seed, sz, outDir)
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}

	var inst instance
	var setups []float64
	warm := &result{}
	for round := 0; round < setupRounds; round++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if inst, err = w.build(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		if err := inst.rep(warm); err != nil {
			inst.close()
			return nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst.verify(warm)
	}
	defer inst.close()
	runtime.GC()

	res := &result{failed: warm.failed}
	budget := time.Duration(seconds * float64(time.Second))
	var rt rtDelta
	measure := func(until time.Duration, start time.Time) error {
		for time.Since(start) < until {
			// Every repetition starts from a collected heap, so that an op's
			// time does not depend on how much garbage the ones before it
			// left behind.
			runtime.GC()
			marked := resetPeakRSS()
			if res.tracing() {
				rt.begin()
			}
			ops := len(res.ops)
			err := inst.rep(res)
			if res.tracing() {
				rt.end()
			}
			if marked {
				res.peaks = append(res.peaks, float64(peakRSS()))
			}
			if err != nil {
				return fmt.Errorf("%s: repetition: %w", name, err)
			}
			if len(res.ops) > ops {
				res.tails = append(res.tails, percentile(res.ops[ops:], 95))
			}
			inst.verify(res)
		}
		return nil
	}
	start := time.Now()
	if !traced {
		if err := measure(budget, start); err != nil {
			return nil, err
		}
	} else {
		// Half the time with tracing off gives the op time the traced half
		// is compared with: the difference is the tracing overhead.
		if err := measure(budget/2, start); err != nil {
			return nil, err
		}
		res.rec, res.tracedFrom = newRecorder(), len(res.ops)
		if err := measure(budget, start); err != nil {
			return nil, err
		}
		if c, ok := inst.(calibrator); ok {
			if err := c.calibrate(res); err != nil {
				return nil, fmt.Errorf("%s: calibration: %w", name, err)
			}
		}
	}
	if len(res.throughputs) == 0 || len(res.ops) == 0 {
		return nil, fmt.Errorf("%s: no op completed", name)
	}

	rep := &report{Workload: name, Traced: traced, Attempted: len(res.ops), Failed: res.failed,
		Checked: res.checked, Reps: len(res.tails), Stretches: len(res.throughputs),
		Values: make(map[string]float64)}
	if !traced {
		// A shared machine has slow spells that last a second or two. The
		// median over repetitions shrugs off a minority of slow repetitions
		// where a total over the run would average them in.
		rep.Values["throughput_eps"] = median(res.throughputs)
		rep.Values["op_s_p50"] = median(res.ops)
		rep.Values["op_s_p95"] = median(res.tails)
		// Resident size is a high-water mark, so one late collection can lift
		// it for good; the median over repetitions of the mark each reached
		// also leaves out what the oracle allocates between repetitions. Where
		// the mark cannot be reset it is the whole process's mark at exit.
		rep.Values["peak_rss_bytes"] = float64(peakRSS())
		if len(res.peaks) > 0 {
			rep.Values["peak_rss_bytes"] = median(res.peaks)
		}
		rep.Values["setup_s"] = median(setups)
		return rep, nil
	}

	rep.Samples = make(map[string]int)
	for _, m := range perLayer {
		rep.Values[m.Name] = median(res.layer[m.Name])
		rep.Samples[m.Name] = max(len(res.layer[m.Name]), 1) // the runner's own read-outs are one delta
	}
	if nTraced := len(res.traced()); nTraced > 0 {
		rep.Values["rt.allocs_per_op"] = float64(rt.mallocs) / float64(nTraced)
		rep.Values["rt.alloc_bytes_per_op"] = float64(rt.bytes) / float64(nTraced)
		rep.Values["rt.gc_pause_s"] = rt.pause.Seconds()
		if rt.cpuTotal > 0 {
			rep.Values["rt.gc_cpu_share"] = rt.cpuGC / rt.cpuTotal
		}
		if untraced := res.ops[:res.tracedFrom]; len(untraced) > 0 {
			rep.Values["obs.trace_overhead"] = median(res.traced())/median(untraced) - 1
		}
	}
	rep.Layers, rep.OpMean, rep.LayerSum = layerTable(res.rec.spans)
	for _, row := range rep.Layers {
		if row.Layer == otherLayer {
			rep.Values["obs.other_share"] += row.Share
		}
	}
	path, err := res.rec.writeTrace(outDir, name)
	if err != nil {
		return nil, err
	}
	rep.TracePath = path
	return rep, nil
}

// rtDelta sums Go-runtime cost over the traced repetitions, so that
// allocation and collection are attributed apart from the framework's time.
type rtDelta struct {
	mallocs, bytes  uint64
	pause           time.Duration
	cpuGC, cpuTotal float64

	m0      runtime.MemStats
	samples [2]metrics.Sample
	gc0     float64
	total0  float64
}

func (d *rtDelta) read() (gc, total float64) {
	d.samples[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	d.samples[1].Name = "/cpu/classes/total:cpu-seconds"
	metrics.Read(d.samples[:])
	return d.samples[0].Value.Float64(), d.samples[1].Value.Float64()
}

func (d *rtDelta) begin() {
	runtime.ReadMemStats(&d.m0)
	d.gc0, d.total0 = d.read()
}

func (d *rtDelta) end() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	d.mallocs += m.Mallocs - d.m0.Mallocs
	d.bytes += m.TotalAlloc - d.m0.TotalAlloc
	d.pause += time.Duration(m.PauseTotalNs - d.m0.PauseTotalNs)
	gc, total := d.read()
	d.cpuGC += gc - d.gc0
	d.cpuTotal += total - d.total0
}

// mismatch describes the first place where got and want differ by more than
// tol relative to the larger magnitude; it is empty when they agree.
func mismatch(got, want []float64, tol float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, reference has %d", len(got), len(want))
	}
	for i := range want {
		if !relClose(got[i], want[i], tol) {
			return fmt.Sprintf("value %d is %v, reference %v", i, got[i], want[i])
		}
	}
	return ""
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// counter reads a counter of the process-wide obs registry.
func counter(name string) int64 { return obs.DefaultRegistry().Counter(name).Value() }
