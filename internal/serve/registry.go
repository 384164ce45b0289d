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
	"sort"
	"sync"
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
	// Order is the Savitzky–Golay polynomial order.
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

// jobProgram is a built, ready-to-run job: run executes it (emitting stream
// records as it goes) and returns the final result; checkpoint, when
// non-nil, persists the job's combination-map state so a drained server (or
// the cluster dispatcher, between steps) can hand the job to a future
// executor, and restore loads such a state back. setSkip marks the leading
// time-steps a restored run must consume without re-analyzing (their
// contribution is already in the restored map), stepsDone reports completed
// steps, and setTrace places the job's phase spans in a distributed trace.
// Applications whose state is reset every time-step (the window filters)
// have nil checkpoint/restore — there is nothing durable to save mid-run.
type jobProgram struct {
	run        func(ctx context.Context, emit func(StreamRecord)) (any, error)
	checkpoint func(path string) error
	restore    func(path string) error
	setSkip    func(steps int)
	stepsDone  func() int
	setTrace   func(tc obs.TraceContext)
}

// builder constructs a jobProgram from a normalized spec, charging the
// scheduler's data structures against mem; comm, when non-nil, spans the
// job's global combination across a sub-communicator. Construction performs
// full validation: a builder error means the spec is bad (HTTP 400), never
// that the server is overloaded.
type builder func(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error)

// builders is the typed job registry: the paper's evaluation applications
// plus an example two-stage pipeline, keyed by the names clients submit.
var builders = map[string]builder{
	"histogram":     buildHistogram,
	"gridagg":       buildGridAgg,
	"moments":       buildMoments,
	"mutualinfo":    buildMutualInfo,
	"logreg":        buildLogReg,
	"kmeans":        buildKMeans,
	"movingavg":     buildWindow("movingavg"),
	"movingmedian":  buildWindow("movingmedian"),
	"kde":           buildWindow("kde"),
	"savgol":        buildWindow("savgol"),
	"pipeline-grid": buildGridHistPipeline,
}

// Apps returns the registered application names, sorted.
func Apps() []string {
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildJob normalizes the spec and dispatches to its application's builder.
func buildJob(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (JobSpec, *jobProgram, error) {
	if err := spec.normalize(); err != nil {
		return spec, nil, err
	}
	if spec.Kind == KindStanding {
		prog, err := buildStanding(spec, mem, comm)
		return spec, prog, err
	}
	b, ok := builders[spec.App]
	if !ok {
		return spec, nil, fmt.Errorf("serve: unknown app %q (have %v)", spec.App, Apps())
	}
	prog, err := b(spec, mem, comm)
	return spec, prog, err
}

// Program is a compiled job for an external executor — the cluster worker
// ranks run jobs through this surface instead of the server's local pool.
type Program struct{ p *jobProgram }

// Compile validates and compiles spec into a runnable Program. mem charges
// the runtime's data structures; comm, when non-nil, is the job's
// sub-communicator — the scheduler's global combination then spans its
// ranks every time-step.
func Compile(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (JobSpec, *Program, error) {
	norm, p, err := buildJob(spec, mem, comm)
	if err != nil {
		return norm, nil, err
	}
	return norm, &Program{p: p}, nil
}

// Run executes the program, forwarding stream records to emit.
func (pr *Program) Run(ctx context.Context, emit func(StreamRecord)) (any, error) {
	return pr.p.run(ctx, emit)
}

// CanCheckpoint reports whether the application has durable cross-step
// state to persist (the window filters do not).
func (pr *Program) CanCheckpoint() bool { return pr.p.checkpoint != nil }

// Checkpoint persists the job's combination map to path (crash-safe). Call
// only between runs or between time-steps (from the emit callback of a
// "step" record) — never while a reduction is in flight.
func (pr *Program) Checkpoint(path string) error { return pr.p.checkpoint(path) }

// Restore loads a checkpointed combination map and marks the first
// stepsDone time-steps as already analyzed: the run consumes them from the
// deterministic stream without re-reducing, so the restored job's final
// output is byte-identical to an uninterrupted run.
func (pr *Program) Restore(path string, stepsDone int) error {
	if pr.p.restore == nil {
		return fmt.Errorf("serve: application has no checkpoint state to restore")
	}
	if err := pr.p.restore(path); err != nil {
		return err
	}
	pr.p.setSkip(stepsDone)
	return nil
}

// StepsDone reports the completed time-steps (checkpoint-covered steps
// included after a Restore).
func (pr *Program) StepsDone() int { return pr.p.stepsDone() }

// SetTraceContext places the program's phase spans under the given trace
// position (conventionally the job's root span on the coordinator).
func (pr *Program) SetTraceContext(tc obs.TraceContext) { pr.p.setTrace(tc) }

// rangeOr returns the spec's [lo, hi) value range, defaulting to ±4σ of the
// emulator's standard-normal stream.
func rangeOr(p Params) (lo, hi float64) {
	if p.Hi > p.Lo {
		return p.Lo, p.Hi
	}
	return -4, 4
}

// emulator builds the deterministic data source for a spec. dims > 1
// switches the stream to labeled logistic-regression records.
func emulator(spec JobSpec, dims int) (*sim.Emulator, error) {
	return sim.NewEmulator(sim.EmulatorConfig{StepElems: spec.Elems, Seed: spec.Seed, Dims: dims})
}

// wireRunner couples a scheduler and a data source into a jobProgram: every
// time-step the emulator produces is analyzed in place with the job's
// context (so cancellation lands within one chunk), phase spans and early
// emissions are forwarded to the job's stream, and the caller's result
// extractor shapes the final payload. The returned program has run,
// setSkip/stepsDone and setTrace wired; checkpoint/restore are the
// caller's to attach for applications with durable state.
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

func wireRunner[Out any](sched *core.Scheduler[float64, Out], em *sim.Emulator,
	spec JobSpec, mem *memmodel.Node, multiKey, resetPerStep bool, outLen int,
	result func(out []Out) any) *jobProgram {

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
	p := &jobProgram{
		setTrace:  sched.SetTraceContext,
		setSkip:   func(n int) { skip = n },
		stepsDone: func() int { return int(done.Load()) },
	}
	p.run = func(ctx context.Context, e func(StreamRecord)) (any, error) {
		emit = e
		stepCtx, stop := drainShield(ctx)
		defer stop()
		var out []Out
		if outLen > 0 {
			out = make([]Out, outLen)
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
			if resetPerStep {
				sched.ResetCombinationMap()
			}
			var err error
			if multiKey {
				err = sched.Run2Context(stepCtx, data, out)
			} else {
				err = sched.RunContext(stepCtx, data, out)
			}
			if err != nil {
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
		res := result(out)
		if m, ok := res.(map[string]any); ok {
			m["stats"] = statsView(sched.Stats().Snapshot())
		}
		return res, nil
	}
	return p
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

func buildHistogram(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error) {
	p := spec.Params
	lo, hi := rangeOr(p)
	buckets := p.Buckets
	if buckets == 0 {
		buckets = 100
	}
	if buckets < 0 || buckets > spec.Elems {
		return nil, fmt.Errorf("serve: histogram buckets must be in (0, elems]")
	}
	app := analytics.NewHistogram(lo, hi, buckets)
	sched, err := core.NewScheduler[float64, int64](app, core.SchedArgs{
		NumThreads: spec.Threads, ChunkSize: 1, NumIters: 1, Mem: mem, Comm: comm,
	})
	if err != nil {
		return nil, err
	}
	em, err := emulator(spec, 0)
	if err != nil {
		return nil, err
	}
	prog := wireRunner(sched, em, spec, mem, false, false, buckets, func(out []int64) any {
		return map[string]any{"buckets": out, "lo": lo, "hi": hi}
	})
	prog.checkpoint, prog.restore = sched.WriteCheckpoint, sched.ReadCheckpoint
	return prog, nil
}

func buildGridAgg(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error) {
	gs := spec.Params.GridSize
	if gs == 0 {
		gs = 1000
	}
	if gs < 0 || gs > spec.Elems {
		return nil, fmt.Errorf("serve: grid_size must be in (0, elems]")
	}
	cells := (spec.Elems + gs - 1) / gs
	app := analytics.NewGridAgg(gs, 0)
	sched, err := core.NewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: spec.Threads, ChunkSize: 1, NumIters: 1, Mem: mem, Comm: comm,
	})
	if err != nil {
		return nil, err
	}
	em, err := emulator(spec, 0)
	if err != nil {
		return nil, err
	}
	prog := wireRunner(sched, em, spec, mem, false, false, cells, func(out []float64) any {
		return map[string]any{"cells": out, "grid_size": gs}
	})
	prog.checkpoint, prog.restore = sched.WriteCheckpoint, sched.ReadCheckpoint
	return prog, nil
}

func buildMoments(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error) {
	gs := spec.Params.GridSize
	if gs == 0 {
		gs = 1000
	}
	if gs < 0 || gs > spec.Elems {
		return nil, fmt.Errorf("serve: grid_size must be in (0, elems]")
	}
	cells := (spec.Elems + gs - 1) / gs
	app := analytics.NewMoments(gs, 0)
	sched, err := core.NewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: spec.Threads, ChunkSize: 1, NumIters: 1, Mem: mem, Comm: comm,
	})
	if err != nil {
		return nil, err
	}
	em, err := emulator(spec, 0)
	if err != nil {
		return nil, err
	}
	prog := wireRunner(sched, em, spec, mem, false, false, cells, func(out []float64) any {
		return map[string]any{"variance": out, "grid_size": gs}
	})
	prog.checkpoint, prog.restore = sched.WriteCheckpoint, sched.ReadCheckpoint
	return prog, nil
}

func buildMutualInfo(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error) {
	p := spec.Params
	lo, hi := rangeOr(p)
	buckets := p.Buckets
	if buckets == 0 {
		buckets = 64
	}
	if buckets < 0 || buckets > 4096 {
		return nil, fmt.Errorf("serve: mutualinfo buckets must be in (0, 4096]")
	}
	spec.Elems = spec.Elems / 2 * 2 // element pairs
	if spec.Elems == 0 {
		return nil, fmt.Errorf("serve: mutualinfo needs at least one element pair")
	}
	app := analytics.NewMutualInfo(lo, hi, buckets, lo, hi, buckets)
	sched, err := core.NewScheduler[float64, int64](app, core.SchedArgs{
		NumThreads: spec.Threads, ChunkSize: 2, NumIters: 1, Mem: mem, Comm: comm,
	})
	if err != nil {
		return nil, err
	}
	em, err := emulator(spec, 0)
	if err != nil {
		return nil, err
	}
	prog := wireRunner(sched, em, spec, mem, false, false, 0, func([]int64) any {
		return map[string]any{"mutual_information": app.MI(sched.CombinationMap())}
	})
	prog.checkpoint, prog.restore = sched.WriteCheckpoint, sched.ReadCheckpoint
	return prog, nil
}

func buildLogReg(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error) {
	p := spec.Params
	dims := p.Dims
	if dims == 0 {
		dims = 8
	}
	if dims < 0 || dims > 1024 {
		return nil, fmt.Errorf("serve: logreg dims must be in (0, 1024]")
	}
	iters := p.Iters
	if iters == 0 {
		iters = 3
	}
	if iters < 0 || iters > 1000 {
		return nil, fmt.Errorf("serve: logreg iters must be in (0, 1000]")
	}
	rate := p.Rate
	if rate == 0 {
		rate = 0.1
	}
	rec := dims + 1
	spec.Elems = spec.Elems / rec * rec // whole records only
	if spec.Elems == 0 {
		return nil, fmt.Errorf("serve: logreg needs at least one record (elems >= dims+1)")
	}
	app := analytics.NewLogReg(dims, rate)
	sched, err := core.NewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: spec.Threads, ChunkSize: rec, NumIters: iters, Mem: mem, Comm: comm,
	})
	if err != nil {
		return nil, err
	}
	em, err := emulator(spec, dims)
	if err != nil {
		return nil, err
	}
	prog := wireRunner(sched, em, spec, mem, false, false, 0, func([]float64) any {
		return map[string]any{"weights": app.Weights(sched.CombinationMap())}
	})
	prog.checkpoint, prog.restore = sched.WriteCheckpoint, sched.ReadCheckpoint
	return prog, nil
}

func buildKMeans(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error) {
	p := spec.Params
	k, dims := p.K, p.Dims
	if k == 0 {
		k = 4
	}
	if dims == 0 {
		dims = 4
	}
	if k < 0 || k > 4096 || dims < 0 || dims > 1024 {
		return nil, fmt.Errorf("serve: kmeans k must be in (0, 4096], dims in (0, 1024]")
	}
	iters := p.Iters
	if iters == 0 {
		iters = 10
	}
	if iters < 0 || iters > 1000 {
		return nil, fmt.Errorf("serve: kmeans iters must be in (0, 1000]")
	}
	spec.Elems = spec.Elems / dims * dims // whole points only
	if spec.Elems == 0 {
		return nil, fmt.Errorf("serve: kmeans needs at least one point (elems >= dims)")
	}
	lo, hi := rangeOr(p)
	app := analytics.NewKMeans(k, dims)
	sched, err := core.NewScheduler[float64, []float64](app, core.SchedArgs{
		NumThreads: spec.Threads, ChunkSize: dims, NumIters: iters, Mem: mem, Comm: comm,
		Extra: initCentroids(k, dims, lo, hi),
	})
	if err != nil {
		return nil, err
	}
	em, err := emulator(spec, 0)
	if err != nil {
		return nil, err
	}
	prog := wireRunner(sched, em, spec, mem, false, false, 0, func([][]float64) any {
		return map[string]any{"centroids": app.Centroids(sched.CombinationMap())}
	})
	prog.checkpoint, prog.restore = sched.WriteCheckpoint, sched.ReadCheckpoint
	return prog, nil
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

// buildWindow constructs one of the four window-based applications. They
// run through the multi-key path (Run2), emit early (every window position
// finalizes and streams as soon as its expected contributions arrive), and
// reset per time-step — so they have no cross-step state to checkpoint.
func buildWindow(kind string) builder {
	return func(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error) {
		p := spec.Params
		win := p.Window
		if win == 0 {
			win = 25
		}
		if win < 0 || win > spec.Elems {
			return nil, fmt.Errorf("serve: window must be in (0, elems]")
		}
		var app core.Analytics[float64, float64]
		switch kind {
		case "movingavg":
			app = analytics.NewMovingAverage(win, spec.Elems, 0, true)
		case "movingmedian":
			app = analytics.NewMovingMedian(win, spec.Elems, 0, true)
		case "kde":
			app = analytics.NewKernelDensity(win, spec.Elems, 0, true, p.Bandwidth)
		case "savgol":
			order := p.Order
			if order == 0 {
				order = 2
			}
			if order < 0 || order >= win {
				return nil, fmt.Errorf("serve: savgol order must be in (0, window)")
			}
			app = analytics.NewSavitzkyGolay(win, order, spec.Elems, 0, true)
		default:
			return nil, fmt.Errorf("serve: unknown window app %q", kind)
		}
		sched, err := core.NewScheduler[float64, float64](app, core.SchedArgs{
			NumThreads: spec.Threads, ChunkSize: 1, NumIters: 1, Mem: mem, Comm: comm,
		})
		if err != nil {
			return nil, err
		}
		em, err := emulator(spec, 0)
		if err != nil {
			return nil, err
		}
		return wireRunner(sched, em, spec, mem, true, true, spec.Elems, func(out []float64) any {
			head := out
			if len(head) > 32 {
				head = head[:32]
			}
			return map[string]any{"len": len(out), "head": head}
		}), nil
	}
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
func buildGridHistPipeline(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error) {
	p := spec.Params
	gs := p.GridSize
	if gs == 0 {
		gs = 256
	}
	if gs < 0 || gs > spec.Elems {
		return nil, fmt.Errorf("serve: grid_size must be in (0, elems]")
	}
	buckets := p.Buckets
	if buckets == 0 {
		buckets = 32
	}
	if buckets < 0 || buckets > 1<<16 {
		return nil, fmt.Errorf("serve: buckets must be in (0, 65536]")
	}
	cells := (spec.Elems + gs - 1) / gs
	stage1, err := stream.NewSchedCombiner(stream.SchedOptions[float64]{
		Build: func(int) (core.Analytics[float64, float64], error) {
			return analytics.NewGridAgg(gs, 0), nil
		},
		Args: core.SchedArgs{
			NumThreads: spec.Threads, ChunkSize: 1, NumIters: 1, Mem: mem, Comm: comm,
		},
		OutLen: func(int) int { return cells },
	})
	if err != nil {
		return nil, err
	}
	em, err := emulator(spec, 0)
	if err != nil {
		return nil, err
	}
	var (
		mu    sync.Mutex
		skip  int
		snap  *stream.Snapshot
		pipe  *stream.Pipeline
		trace obs.TraceContext
	)
	var done atomic.Int64
	prog := &jobProgram{
		setSkip:   func(n int) { mu.Lock(); skip = n; mu.Unlock() },
		stepsDone: func() int { return int(done.Load()) },
		setTrace: func(tc obs.TraceContext) {
			mu.Lock()
			trace = tc
			mu.Unlock()
			stage1.SetTraceContext(tc)
		},
	}
	prog.checkpoint = func(path string) error {
		mu.Lock()
		pp := pipe
		mu.Unlock()
		return writeSnapshotCheckpoint(path, pp)
	}
	prog.restore = func(path string) error {
		s, err := readSnapshotCheckpoint(path)
		if err != nil {
			return err
		}
		mu.Lock()
		snap = s
		mu.Unlock()
		return nil
	}
	prog.run = func(ctx context.Context, emit func(StreamRecord)) (any, error) {
		mu.Lock()
		startStep := skip
		restored := snap
		tc := trace
		mu.Unlock()
		done.Store(int64(startStep))
		stepCtx, stop := drainShield(ctx)
		defer stop()

		// A resumed run steps the emulator past the consumed prefix without
		// analyzing it, keeping the deterministic stream aligned; the
		// restored snapshot already holds those steps' contributions.
		for i := 0; i < startStep; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := em.Step(); err != nil {
				return nil, err
			}
		}
		src := insitu.StreamSource(em, insitu.StreamSourceConfig{
			TimeSharingConfig: insitu.TimeSharingConfig{Steps: spec.Steps - startStep, Mem: mem},
			StartStep:         startStep,
		})
		stepSrc := stream.SourceFunc(func(fctx context.Context, push func(stream.Event) error) error {
			return src.Feed(fctx, func(ev stream.Event) error {
				if err := drainRequested(ctx); err != nil {
					return err
				}
				if err := push(ev); err != nil {
					return err
				}
				step := int(done.Add(1))
				emit(StreamRecord{Type: "step", Step: step - 1})
				return nil
			})
		})

		// Stage two learns its bucket range from stage one's output — the
		// cross-stage dependency that makes this a pipeline rather than two
		// independent jobs. The global window delivers every step's means in
		// step order; the histogram covers the final step's grid.
		stage2 := stream.CombinerFunc(func(cctx context.Context, _ stream.Window, elems []float64) (any, error) {
			means := elems
			if len(means) > cells {
				means = means[len(means)-cells:]
			}
			lo, hi := means[0], means[0]
			for _, v := range means {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if hi <= lo {
				hi = lo + 1
			}
			sched, err := core.NewScheduler[float64, int64](analytics.NewHistogram(lo, hi, buckets), core.SchedArgs{
				NumThreads: spec.Threads, ChunkSize: 1, NumIters: 1, Mem: mem,
			})
			if err != nil {
				return nil, err
			}
			mu.Lock()
			sched.SetTraceContext(trace)
			mu.Unlock()
			hist := make([]int64, buckets)
			if err := sched.RunContext(cctx, means, hist); err != nil {
				return nil, err
			}
			result := map[string]any{
				"cell_means": cells, "lo": lo, "hi": hi, "buckets": hist,
				"stats": map[string]any{
					"stage2": statsView(sched.Stats().Snapshot()),
				},
			}
			return result, nil
		})

		var result map[string]any
		pl := stream.New().
			From(stepSrc).
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
		if tc.Valid() {
			stage1.SetTraceContext(tc)
		}
		mu.Lock()
		pipe = pl
		mu.Unlock()
		if restored != nil {
			if err := pl.Restore(restored); err != nil {
				return nil, err
			}
		}
		if err := pl.Run(stepCtx); err != nil {
			return nil, err
		}
		if result == nil {
			return nil, fmt.Errorf("serve: pipeline finished without firing its global window")
		}
		if st := stage1.Stats(); st != nil {
			result["stats"].(map[string]any)["stage1"] = statsView(st.Snapshot())
		}
		return result, nil
	}
	return prog, nil
}
