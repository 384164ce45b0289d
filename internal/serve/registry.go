// Package serve runs Smart analytics as a multi-tenant service: clients
// submit typed job specs over HTTP, a weighted-fair queue with
// memmodel-backed admission control decides whether and when a job may
// enter, a worker pool executes admitted jobs on core.Scheduler with
// per-job deadlines and cancellation (or hands them to a cluster executor),
// and results stream back as NDJSON — early emissions and phase spans while
// the job runs, the final output when it converges. It is the service layer
// the paper's in-situ runtime lacks: the same node that hosts the simulation
// can answer ad-hoc analytics queries without being pushed into paging.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/insitu"
	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/sim"
	"github.com/scipioneer/smart/internal/stream"
)

// Params are the per-application knobs of a JobSpec. Unused fields are
// ignored by applications that do not read them; zero values select
// documented defaults.
type Params struct {
	// K and Dims parameterize k-means (clusters × dimensions) and logistic
	// regression (feature dimensions).
	K    int `json:"k,omitempty"`
	Dims int `json:"dims,omitempty"`
	// Iters is the iteration count per time-step for iterative applications
	// (k-means, logistic regression).
	Iters int `json:"iters,omitempty"`
	// Buckets is the histogram/mutual-information bucket count.
	Buckets int `json:"buckets,omitempty"`
	// Lo and Hi bound the value range for bucketed applications.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Window is the window size of the four window-based applications.
	Window int `json:"window,omitempty"`
	// Order is the Savitzky–Golay polynomial order, in [1, min(window−1,
	// 15)]; the default is 2.
	Order int `json:"order,omitempty"`
	// GridSize is the grid-aggregation/moments cell size in elements.
	GridSize int `json:"grid_size,omitempty"`
	// Rate is the logistic-regression learning rate.
	Rate float64 `json:"rate,omitempty"`
	// Bandwidth is the kernel-density bandwidth (0 = triangular default).
	Bandwidth float64 `json:"bandwidth,omitempty"`

	// WindowKind selects a standing query's event-time window assignment:
	// "tumbling" (default), "sliding", "session", or "global". Event time is
	// the simulation step index.
	WindowKind string `json:"window_kind,omitempty"`
	// WindowSize is the window width in steps (default 8); it is the
	// session gap when WindowKind is "session".
	WindowSize int64 `json:"window_size,omitempty"`
	// WindowSlide is the sliding-window stride in steps (default half the
	// size).
	WindowSlide int64 `json:"window_slide,omitempty"`
	// Late selects a standing query's late-data policy: "drop" (default)
	// discards events behind the watermark, "side_output" routes them to
	// "late" stream records.
	Late string `json:"late,omitempty"`
	// AllowedLateness widens the watermark heuristic by this many steps,
	// keeping windows open for out-of-order arrivals within the bound.
	AllowedLateness int64 `json:"allowed_lateness,omitempty"`
}

// JobSpec is a typed analytics job request: which registered application to
// run, over how much emulated simulation data, with what resources.
type JobSpec struct {
	// App names a registered application (see Apps).
	App string `json:"app"`
	// Kind selects the execution mode: "" or "batch" runs Steps time-steps
	// and returns one final result; "standing" compiles the application
	// into a continuous windowed query over the step stream — every fired
	// window streams out as a "window" record and a drain checkpoints the
	// open windows instead of a combination map. Standing jobs run on the
	// serving node only (rejected in cluster mode).
	Kind string `json:"kind,omitempty"`
	// Steps is the number of simulation time-steps to analyze (default 1).
	Steps int `json:"steps,omitempty"`
	// Elems is the number of float64 elements per time-step (default 65536).
	Elems int `json:"elems,omitempty"`
	// Seed makes the emulated data stream deterministic.
	Seed uint64 `json:"seed,omitempty"`
	// Threads is the scheduler's reduction thread count (default 2).
	Threads int `json:"threads,omitempty"`
	// Ranks is how many cluster worker ranks the job spans (default 1).
	// Multi-rank jobs partition the per-step data across their ranks and
	// run the global combination over a per-job sub-communicator; the
	// single-process server accepts but ignores values above 1.
	Ranks int `json:"ranks,omitempty"`
	// DeadlineMS caps the job's wall-clock run time in milliseconds; zero
	// uses the server default, negative means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Tenant attributes the job to a client: it selects the fair-queueing
	// weight/quota/class the job is admitted under and becomes the
	// "tenant" pprof label on everything the job's goroutines do.
	Tenant string `json:"tenant,omitempty"`
	// Params carries the application knobs.
	Params Params `json:"params,omitempty"`
}

// maxElems bounds a single time-step so one spec cannot ask the service to
// materialize an absurd buffer.
const maxElems = 1 << 24

// maxRanks bounds how many worker ranks one job may span.
const maxRanks = 256

// normalize applies spec defaults in place and validates the shared fields.
func (s *JobSpec) normalize() error {
	if s.App == "" {
		return fmt.Errorf("serve: spec missing app name")
	}
	if s.Steps == 0 {
		s.Steps = 1
	}
	if s.Steps < 0 {
		return fmt.Errorf("serve: steps must be positive")
	}
	if s.Elems == 0 {
		s.Elems = 65536
	}
	if s.Elems < 0 || s.Elems > maxElems {
		return fmt.Errorf("serve: elems must be in (0, %d]", maxElems)
	}
	if s.Threads == 0 {
		s.Threads = 2
	}
	if s.Threads < 0 || s.Threads > 256 {
		return fmt.Errorf("serve: threads must be in (0, 256]")
	}
	if s.Ranks == 0 {
		s.Ranks = 1
	}
	if s.Ranks < 0 || s.Ranks > maxRanks {
		return fmt.Errorf("serve: ranks must be in (0, %d]", maxRanks)
	}
	if len(s.Tenant) > 128 {
		return fmt.Errorf("serve: tenant name longer than 128 bytes")
	}
	switch s.Kind {
	case "", KindBatch, KindStanding:
	default:
		return fmt.Errorf("serve: unknown job kind %q (have %q, %q)", s.Kind, KindBatch, KindStanding)
	}
	return nil
}

// Program is a compiled, ready-to-run job, run by the server's worker pool
// or, through the exported methods, by a cluster worker rank. run executes
// it (emitting stream records as it goes) and returns the final result;
// checkpoint, when non-nil, persists the job's combination-map state so a
// drained server (or the cluster dispatcher, between steps) can hand the
// job to a future executor, and restore loads such a state back. setSkip
// marks the leading time-steps a restored run must consume without
// re-analyzing (their contribution is already in the restored map),
// stepsDone reports completed steps, and setTrace places the job's phase
// spans in a distributed trace. Applications whose state is reset every
// time-step (the window filters) have nil checkpoint/restore — there is
// nothing durable to save mid-run.
type Program struct {
	run        func(ctx context.Context, emit func(StreamRecord)) (any, error)
	checkpoint func(path string) error
	restore    func(path string) error
	setSkip    func(steps int)
	stepsDone  func() int
	setTrace   func(tc obs.TraceContext)
}

// builder constructs a Program from a normalized spec, charging the
// scheduler's data structures against mem; comm, when non-nil, spans the
// job's global combination across a sub-communicator. Construction performs
// full validation: a builder error means the spec is bad (HTTP 400), never
// that the server is overloaded.
type builder func(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*Program, error)

// entry is a registered application: its batch builder and, for apps with
// a standing-query form, the compiler of its windowed combiner.
type entry struct {
	batch    builder
	standing func(spec JobSpec, mem *memmodel.Node) (schedCombiner, error)
}

// registry is the typed job registry: the paper's evaluation applications
// plus an example two-stage pipeline, keyed by the names clients submit.
// Every application but the pipeline is one compile function; batchApp and
// standingApp derive its job forms from it.
var registry = map[string]entry{
	"histogram":     standingApp(compileHistogram),
	"gridagg":       standingApp(compileGridAgg),
	"moments":       standingApp(compileMoments),
	"mutualinfo":    batchApp(compileMutualInfo),
	"logreg":        batchApp(compileLogReg),
	"kmeans":        batchApp(compileKMeans),
	"movingavg":     standingApp(compileMovingAvg),
	"movingmedian":  batchApp(compileMovingMedian),
	"kde":           batchApp(compileKDE),
	"savgol":        batchApp(compileSavGol),
	"pipeline-grid": {batch: buildGridHistPipeline},
}

// batchApp registers an application that runs as batch jobs only.
func batchApp[Out any](compile func(Params, int) (kernel[Out], error)) entry {
	return entry{batch: def[Out](compile).build}
}

// standingApp registers an application that also runs as standing queries.
func standingApp[Out any](compile func(Params, int) (kernel[Out], error)) entry {
	d := def[Out](compile)
	return entry{batch: d.build, standing: d.combiner}
}

// Apps returns the registered application names, sorted.
func Apps() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Compile validates and compiles spec into a runnable Program. mem charges
// the runtime's data structures; comm, when non-nil, is the job's
// sub-communicator that the scheduler's global combination spans: every
// iteration for iterative applications and every step for the window
// filters, once after the last time-step for accumulating ones.
func Compile(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (JobSpec, *Program, error) {
	if err := spec.normalize(); err != nil {
		return spec, nil, err
	}
	e, ok := registry[spec.App]
	if !ok {
		return spec, nil, fmt.Errorf("serve: unknown app %q (have %v)", spec.App, Apps())
	}
	if spec.Kind == KindStanding {
		prog, err := buildStanding(spec, e.standing, mem, comm)
		return spec, prog, err
	}
	prog, err := e.batch(spec, mem, comm)
	return spec, prog, err
}

// Run executes the program, forwarding stream records to emit.
func (pr *Program) Run(ctx context.Context, emit func(StreamRecord)) (any, error) {
	return pr.run(ctx, emit)
}

// CanCheckpoint reports whether the application has durable cross-step
// state to persist (the window filters do not).
func (pr *Program) CanCheckpoint() bool { return pr.checkpoint != nil }

// Checkpoint persists the job's combination map to path (crash-safe). Call
// only between runs or between time-steps (from the emit callback of a
// "step" record) — never while a reduction is in flight.
func (pr *Program) Checkpoint(path string) error { return pr.checkpoint(path) }

// Restore loads a checkpointed combination map and marks the first
// stepsDone time-steps as already analyzed: the run consumes them from the
// deterministic stream without re-reducing, so the restored job's final
// output is byte-identical to an uninterrupted run.
func (pr *Program) Restore(path string, stepsDone int) error {
	if pr.restore == nil {
		return fmt.Errorf("serve: application has no checkpoint state to restore")
	}
	if err := pr.restore(path); err != nil {
		return err
	}
	pr.setSkip(stepsDone)
	return nil
}

// StepsDone reports the completed time-steps (checkpoint-covered steps
// included after a Restore).
func (pr *Program) StepsDone() int { return pr.stepsDone() }

// SetTraceContext places the program's phase spans under the given trace
// position (conventionally the job's root span on the coordinator).
func (pr *Program) SetTraceContext(tc obs.TraceContext) { pr.setTrace(tc) }

// drainShield returns the context the per-step reductions run on: it
// ignores a drain-class cancellation of ctx but propagates every other
// cause. A drain must stop the run at a step boundary — the checkpoint
// written afterwards has to capture exactly the steps the resume sidecar
// says were analyzed, or the resumed run double-counts the interrupted
// step's partial contributions — so the in-flight step is allowed to
// finish and the loop stops before reducing the next one. Hard cancels and
// deadlines still abort mid-step. The returned stop func releases the
// watcher goroutine.
func drainShield(ctx context.Context) (context.Context, func()) {
	stepCtx, cancel := context.WithCancelCause(context.Background())
	go func() {
		select {
		case <-ctx.Done():
			if cause := context.Cause(ctx); !errors.Is(cause, ErrDrainCheckpoint) {
				cancel(cause)
			}
		case <-stepCtx.Done():
		}
	}()
	return stepCtx, func() { cancel(context.Canceled) }
}

// drainRequested reports whether ctx was cancelled with the drain cause,
// returning that cause for the run loop to surface at the step boundary.
func drainRequested(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	if cause := context.Cause(ctx); errors.Is(cause, ErrDrainCheckpoint) {
		return cause
	}
	return nil
}

// kernel is an application compiled for n elements per time-step (or per
// fired window): everything its batch and standing job forms need.
type kernel[Out any] struct {
	app core.Analytics[float64, Out]
	// args carries ChunkSize, NumIters and Extra; the job form adds
	// threads, mem and comm.
	args core.SchedArgs
	// dims is the emulator's Dims: above 1 it emits labeled records.
	dims int
	// n is the elements per time-step trimmed to whole records.
	n int
	// outLen is the converted-output length; zero skips conversion.
	outLen int
	// window marks the window family: the key space is sized by n, so the
	// map resets every run and there is nothing to checkpoint.
	window bool
	// result shapes the payload from the scheduler and its output.
	result func(s *core.Scheduler[float64, Out], out []Out) any
}

// schedArgs completes the kernel's scheduler arguments for one job.
func (k kernel[Out]) schedArgs(threads int, mem *memmodel.Node, comm *mpi.Comm) core.SchedArgs {
	a := k.args
	a.NumThreads, a.Mem, a.Comm = threads, mem, comm
	return a
}

// def is an application's compile function: the one place its params are
// defaulted and bounds-checked, for n elements.
type def[Out any] func(p Params, n int) (kernel[Out], error)

// build is the batch job form. Every time-step the emulator produces is
// analyzed in place with the job's context (so cancellation lands within
// one chunk), phase spans and early emissions are forwarded to the job's
// stream, and the kernel shapes the final payload.
//
// Across ranks an accumulating application — neither iterative nor
// window-family — reduces its steps with global combination off and merges
// once after the last one. Merging every step would fold the global map
// each rank received into the next step's merge, counting earlier steps
// once per rank. Iterative applications keep the per-iteration merge: their
// PostCombine resets the accumulators it would double.
func (d def[Out]) build(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*Program, error) {
	k, err := d(spec.Params, spec.Elems)
	if err != nil {
		return nil, err
	}
	sched, err := core.NewScheduler[float64, Out](k.app, k.schedArgs(spec.Threads, mem, comm))
	if err != nil {
		return nil, err
	}
	em, err := sim.NewEmulator(sim.EmulatorConfig{StepElems: k.n, Seed: spec.Seed, Dims: k.dims})
	if err != nil {
		return nil, err
	}
	_, iterative := k.app.(core.PostCombiner)
	mergeOnce := comm != nil && !k.window && !iterative
	sched.SetGlobalCombination(!mergeOnce)

	// The phase pprof label on the reduction workers, composing with the
	// job/tenant labels runJob sets around the whole program.
	sched.SetPprofLabels(true)
	// emit is installed by run before the first time-step; the subscribers
	// below only ever fire inside a Run, after that write. The guard keeps a
	// scheduler built but never run (build-time validation) inert.
	var emit func(StreamRecord)
	sched.SubscribeSpans(func(sp obs.Span) {
		if emit != nil {
			emit(StreamRecord{Type: "span", Phase: sp.Name, DurNS: sp.Dur.Nanoseconds()})
		}
	})
	sched.SubscribeEarlyEmits(func(key int, v Out) {
		if emit != nil {
			emit(StreamRecord{Type: "emit", Key: key, Value: v})
		}
	})
	var skip int
	var done atomic.Int64
	p := &Program{
		setTrace:  sched.SetTraceContext,
		setSkip:   func(n int) { skip = n },
		stepsDone: func() int { return int(done.Load()) },
	}
	if !k.window {
		p.checkpoint, p.restore = sched.WriteCheckpoint, sched.ReadCheckpoint
	}
	p.run = func(ctx context.Context, e func(StreamRecord)) (any, error) {
		emit = e
		stepCtx, stop := drainShield(ctx)
		defer stop()
		var out []Out
		if k.outLen > 0 {
			out = make([]Out, k.outLen)
		}
		step := 0
		done.Store(int64(skip))
		analyze := func(data []float64) error {
			if err := drainRequested(ctx); err != nil {
				return err
			}
			if step < skip {
				// A restored run: this step's contribution is already in
				// the restored combination map. The emulator still produced
				// the data (keeping the deterministic stream aligned); we
				// just do not reduce it again.
				step++
				return nil
			}
			if k.window {
				sched.ResetCombinationMap()
			}
			if err := sched.RunContext(stepCtx, data, out); err != nil {
				return err
			}
			// The counter advances before the "step" record goes out: a
			// checkpoint taken from that record's callback must already
			// count the step whose state it captures.
			step++
			done.Store(int64(step))
			emit(StreamRecord{Type: "step", Step: step - 1})
			return nil
		}
		if _, err := insitu.TimeSharingContext(ctx, em, analyze, insitu.TimeSharingConfig{Steps: spec.Steps, Mem: mem}); err != nil {
			return nil, err
		}
		if mergeOnce {
			// A cancelled rank must not enter the collective its peers
			// would wait in.
			if err := stepCtx.Err(); err != nil {
				return nil, context.Cause(stepCtx)
			}
			sched.SetGlobalCombination(true)
			err := sched.GlobalCombine(out)
			sched.SetGlobalCombination(false)
			if err != nil {
				return nil, err
			}
		}
		res := k.result(sched, out)
		if m, ok := res.(map[string]any); ok {
			m["stats"] = statsView(sched.Stats().Snapshot())
		}
		return res, nil
	}
	return p, nil
}

// combiner is the standing job form: every fired window of n elements runs
// the kernel compiled for n, whose result becomes the window record's value.
func (d def[Out]) combiner(spec JobSpec, mem *memmodel.Node) (schedCombiner, error) {
	// Bounds on n are checked as windows fire; compiling for an unbounded n
	// validates everything else at submission.
	k, err := d(spec.Params, math.MaxInt)
	if err != nil {
		return nil, err
	}
	return stream.NewSchedCombiner(stream.SchedOptions[Out]{
		Build: func(n int) (core.Analytics[float64, Out], error) {
			var err error
			k, err = d(spec.Params, n)
			return k.app, err
		},
		Args:    k.schedArgs(spec.Threads, mem, nil),
		PerSize: true,
		OutLen:  func(int) int { return k.outLen },
		Result: func(s *core.Scheduler[float64, Out], out []Out) (any, error) {
			return k.result(s, out), nil
		},
	})
}

// statsView shapes a stats snapshot into the JSON-friendly form embedded in
// job results. It must be fed a Snapshot, never the live Stats pointer: the
// serving layer reads results from goroutines the run loop knows nothing
// about.
func statsView(st core.Stats) map[string]any {
	return map[string]any{
		"reduction_ns":      st.ReductionTime.Nanoseconds(),
		"local_combine_ns":  st.LocalCombineTime.Nanoseconds(),
		"global_combine_ns": st.GlobalCombineTime.Nanoseconds(),
		"serialized_bytes":  st.SerializedBytes,
		"chunks_processed":  st.ChunksProcessed,
		"max_live_redobjs":  st.MaxLiveRedObjs,
		"emitted_early":     st.EmittedEarly,
	}
}

// checker defaults and bounds-checks an application's params, keeping the
// first error.
type checker struct{ err error }

// int defaults a zero knob to def and checks it lies in (0, max].
func (c *checker) int(name string, v, def, max int) int {
	if v == 0 {
		v = def
	}
	if c.err == nil && (v < 0 || v > max) {
		if max == math.MaxInt {
			c.err = fmt.Errorf("serve: %s must be positive", name)
		} else {
			c.err = fmt.Errorf("serve: %s must be in (0, %d]", name, max)
		}
	}
	return v
}

// records trims n elements to whole records of width rec, requiring one.
func (c *checker) records(app string, n, rec int) int {
	if c.err != nil {
		return n
	}
	if n = n / rec * rec; n == 0 {
		c.err = fmt.Errorf("serve: %s needs at least one %d-element record (elems >= %d)", app, rec, rec)
	}
	return n
}

// rangeOr returns the spec's [lo, hi) value range, defaulting to ±4σ of the
// emulator's standard-normal stream.
func rangeOr(p Params) (lo, hi float64) {
	if p.Hi > p.Lo {
		return p.Lo, p.Hi
	}
	return -4, 4
}

// cellsOf is the number of grid cells of size gs covering n > 0 elements.
func cellsOf(n, gs int) int { return (n-1)/gs + 1 }

func compileHistogram(p Params, n int) (kernel[int64], error) {
	var c checker
	buckets := c.int("histogram buckets", p.Buckets, 100, maxElems)
	if c.err != nil {
		return kernel[int64]{}, c.err
	}
	lo, hi := rangeOr(p)
	return kernel[int64]{app: analytics.NewHistogram(lo, hi, buckets), args: core.SchedArgs{ChunkSize: 1}, n: n, outLen: buckets,
		result: func(_ *core.Scheduler[float64, int64], out []int64) any {
			return map[string]any{"buckets": slices.Clone(out), "lo": lo, "hi": hi}
		}}, nil
}

func compileGridAgg(p Params, n int) (kernel[float64], error) {
	return gridKernel(p, n, "cells", analytics.NewGridAgg)
}

func compileMoments(p Params, n int) (kernel[float64], error) {
	return gridKernel(p, n, "variance", analytics.NewMoments)
}

// gridKernel compiles a per-cell application over grid_size-element cells,
// its output under key.
func gridKernel[A core.Analytics[float64, float64]](p Params, n int, key string, newApp func(gs, base int) A) (kernel[float64], error) {
	var c checker
	gs := c.int("grid_size", p.GridSize, 1000, math.MaxInt)
	if c.err != nil {
		return kernel[float64]{}, c.err
	}
	return kernel[float64]{app: newApp(gs, 0), args: core.SchedArgs{ChunkSize: 1}, n: n, outLen: cellsOf(n, gs),
		result: func(_ *core.Scheduler[float64, float64], out []float64) any {
			return map[string]any{key: slices.Clone(out), "grid_size": gs}
		}}, nil
}

func compileMutualInfo(p Params, n int) (kernel[int64], error) {
	var c checker
	buckets := c.int("mutualinfo buckets", p.Buckets, 64, 4096)
	n = c.records("mutualinfo", n, 2) // (x, y) pairs
	if c.err != nil {
		return kernel[int64]{}, c.err
	}
	lo, hi := rangeOr(p)
	app := analytics.NewMutualInfo(lo, hi, buckets, lo, hi, buckets)
	return kernel[int64]{app: app, args: core.SchedArgs{ChunkSize: 2}, n: n,
		result: func(s *core.Scheduler[float64, int64], _ []int64) any {
			return map[string]any{"mutual_information": app.MI(s.CombinationMap())}
		}}, nil
}

func compileLogReg(p Params, n int) (kernel[float64], error) {
	var c checker
	dims := c.int("logreg dims", p.Dims, 8, 1024)
	iters := c.int("logreg iters", p.Iters, 3, 1000)
	n = c.records("logreg", n, dims+1) // features + label
	if c.err != nil {
		return kernel[float64]{}, c.err
	}
	rate := p.Rate
	if rate == 0 {
		rate = 0.1
	}
	app := analytics.NewLogReg(dims, rate)
	return kernel[float64]{app: app, args: core.SchedArgs{ChunkSize: dims + 1, NumIters: iters}, dims: dims, n: n,
		result: func(s *core.Scheduler[float64, float64], _ []float64) any {
			return map[string]any{"weights": app.Weights(s.CombinationMap())}
		}}, nil
}

func compileKMeans(p Params, n int) (kernel[[]float64], error) {
	var c checker
	k := c.int("kmeans k", p.K, 4, 4096)
	dims := c.int("kmeans dims", p.Dims, 4, 1024)
	iters := c.int("kmeans iters", p.Iters, 10, 1000)
	n = c.records("kmeans", n, dims) // points
	if c.err != nil {
		return kernel[[]float64]{}, c.err
	}
	lo, hi := rangeOr(p)
	app := analytics.NewKMeans(k, dims)
	args := core.SchedArgs{ChunkSize: dims, NumIters: iters, Extra: initCentroids(k, dims, lo, hi)}
	return kernel[[]float64]{app: app, args: args, n: n,
		result: func(s *core.Scheduler[float64, []float64], _ [][]float64) any {
			return map[string]any{"centroids": app.Centroids(s.CombinationMap())}
		}}, nil
}

// initCentroids spreads k deterministic starting centroids across [lo, hi]
// on every dimension, mirroring the harness's initialization.
func initCentroids(k, dims int, lo, hi float64) []float64 {
	flat := make([]float64, k*dims)
	for c := 0; c < k; c++ {
		v := lo + (hi-lo)*float64(c)/float64(k)
		for d := 0; d < dims; d++ {
			flat[c*dims+d] = v
		}
	}
	return flat
}

func compileMovingAvg(p Params, n int) (kernel[float64], error) {
	return windowKernel(p, n, func(win int, _ *checker) core.Analytics[float64, float64] {
		return analytics.NewMovingAverage(win, n, 0, true)
	})
}

func compileMovingMedian(p Params, n int) (kernel[float64], error) {
	return windowKernel(p, n, func(win int, _ *checker) core.Analytics[float64, float64] {
		return analytics.NewMovingMedian(win, n, 0, true)
	})
}

func compileKDE(p Params, n int) (kernel[float64], error) {
	return windowKernel(p, n, func(win int, _ *checker) core.Analytics[float64, float64] {
		return analytics.NewKernelDensity(win, n, 0, true, p.Bandwidth)
	})
}

// maxSavGolOrder caps the Savitzky-Golay polynomial order. The weights come
// from the normal equations, whose conditioning worsens with the order: up
// to order 15 they sum to 1 and reproduce every polynomial of that degree to
// 1.5e-10 or better (worst case window 17, over every odd window to 2001 and
// sampled windows up to maxElems), while order 16 misses by 3e-9 at window
// 19 and order 22 by 1e-6 at window 25 — a job above the cap would smooth
// with wrong weights and still report success.
const maxSavGolOrder = 15

func compileSavGol(p Params, n int) (kernel[float64], error) {
	return windowKernel(p, n, func(win int, c *checker) core.Analytics[float64, float64] {
		if order := c.int("savgol order", p.Order, 2, min(win-1, maxSavGolOrder)); c.err == nil {
			return analytics.NewSavitzkyGolay(win, order, n, 0, true)
		}
		return nil
	})
}

// windowKernel compiles a window-family application: its keys are the n
// element positions, and every position emits early — it streams out as
// soon as its window's contributions have arrived.
func windowKernel(p Params, n int, newApp func(win int, c *checker) core.Analytics[float64, float64]) (kernel[float64], error) {
	var c checker
	win := c.int("window", p.Window, 25, n)
	if c.err == nil && win%2 == 0 {
		c.err = fmt.Errorf("serve: window must be odd")
	}
	var app core.Analytics[float64, float64]
	if c.err == nil {
		app = newApp(win, &c)
	}
	if c.err != nil {
		return kernel[float64]{}, c.err
	}
	return kernel[float64]{app: app, args: core.SchedArgs{ChunkSize: 1}, n: n, outLen: n, window: true,
		result: func(_ *core.Scheduler[float64, float64], out []float64) any {
			return map[string]any{"len": len(out), "head": slices.Clone(out[:min(len(out), 32)])}
		}}, nil
}

// buildGridHistPipeline is the example two-stage Smart pipeline from the
// registry: stage one grid-aggregates each time-step into cell means, stage
// two histograms the final step's means over their observed range. It is
// compiled as a stream operator chain — per-step tumbling windows feed the
// grid combiner, ThenMap routes each step's means into a global window, and
// the global combiner learns the bucket range when the stream ends — so the
// cross-stage plumbing (buffering, ordering, flush) is the streaming
// layer's, not this builder's. Both stages run on the job's context;
// cancellation stops either within one chunk.
func buildGridHistPipeline(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*Program, error) {
	var c checker
	gs := c.int("grid_size", spec.Params.GridSize, 256, math.MaxInt)
	buckets := c.int("buckets", spec.Params.Buckets, 32, 1<<16)
	if c.err != nil {
		return nil, c.err
	}
	cells := cellsOf(spec.Elems, gs)
	stage1, err := stream.NewSchedCombiner(stream.SchedOptions[float64]{
		Build: func(int) (core.Analytics[float64, float64], error) {
			return analytics.NewGridAgg(gs, 0), nil
		},
		Args:   core.SchedArgs{NumThreads: spec.Threads, ChunkSize: 1, Mem: mem, Comm: comm},
		OutLen: func(int) int { return cells },
	})
	if err != nil {
		return nil, err
	}
	em, err := sim.NewEmulator(sim.EmulatorConfig{StepElems: spec.Elems, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	source := func(ctx context.Context, start int) (stream.Source, error) {
		// A resumed run steps the emulator past the consumed prefix without
		// analyzing it, keeping the deterministic stream aligned; the
		// restored snapshot already holds those steps' contributions.
		for i := 0; i < start; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := em.Step(); err != nil {
				return nil, err
			}
		}
		return insitu.StreamSource(em, insitu.StreamSourceConfig{
			TimeSharingConfig: insitu.TimeSharingConfig{Steps: spec.Steps - start, Mem: mem},
			StartStep:         start,
		}), nil
	}
	wire := func(steps stream.Source, _ func(StreamRecord), tc obs.TraceContext) (*stream.Pipeline, func(int64) (any, error)) {
		// Stage two learns its bucket range from stage one's output — the
		// cross-stage dependency that makes this a pipeline rather than two
		// independent jobs. The global window delivers every step's means in
		// step order; the histogram covers the final step's grid.
		stage2 := stream.CombinerFunc(func(cctx context.Context, _ stream.Window, elems []float64) (any, error) {
			means := elems
			if len(means) > cells {
				means = means[len(means)-cells:]
			}
			lo, hi := slices.Min(means), slices.Max(means)
			if hi <= lo {
				hi = lo + 1
			}
			sched, err := core.NewScheduler[float64, int64](analytics.NewHistogram(lo, hi, buckets),
				core.SchedArgs{NumThreads: spec.Threads, ChunkSize: 1, Mem: mem})
			if err != nil {
				return nil, err
			}
			sched.SetTraceContext(tc)
			hist := make([]int64, buckets)
			if err := sched.RunContext(cctx, means, hist); err != nil {
				return nil, err
			}
			return map[string]any{
				"cell_means": cells, "lo": lo, "hi": hi, "buckets": hist,
				"stats": map[string]any{
					"stage2": statsView(sched.Stats().Snapshot()),
				},
			}, nil
		})

		var result map[string]any
		pl := stream.New().
			From(steps).
			Window(stream.Tumbling(1)).
			Combine(stage1).
			ThenMap(func(res stream.WindowResult) (stream.Event, bool) {
				return stream.Event{Time: res.Window.Start, Data: res.Value.([]float64)}, true
			}).
			Window(stream.Global()).
			Combine(stage2).
			To(stream.CallbackSink(func(res stream.WindowResult) error {
				result = res.Value.(map[string]any)
				return nil
			}))
		return pl, func(int64) (any, error) {
			if result == nil {
				return nil, fmt.Errorf("serve: pipeline finished without firing its global window")
			}
			if st := stage1.Stats(); st != nil {
				result["stats"].(map[string]any)["stage1"] = statsView(st.Snapshot())
			}
			return result, nil
		}
	}
	return pipelineProgram(stage1, source, wire), nil
}
