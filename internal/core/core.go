// Package core implements Smart, the in-situ MapReduce-like runtime of the
// paper. Unlike conventional MapReduce, Smart never emits intermediate
// key-value pairs: the user declares a reduction object (RedObj) and the
// runtime accumulates every unit chunk in place inside per-thread reduction
// maps, merges those into a per-node combination map (local combination), and
// merges node maps across the communicator (global combination). This keeps
// the analytics' memory footprint near the size of the final result — the
// property that makes co-location with a memory-bound simulation viable.
//
// The package offers the paper's two in-situ modes. In time sharing mode the
// caller passes the simulation's own output buffer to Run — the runtime
// only ever reads through that pointer, so no extra copy of the time-step is
// made. In space sharing mode the caller Feeds time-steps (which are copied
// into a bounded circular buffer) while a concurrent analytics task drains
// them with RunShared.
package core

import (
	"context"
	"errors"
	"sync/atomic"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/ringbuf"
)

// RedObj is the reduction object: the mutable value that accumulates all
// elements sharing one key (paper Section 3.1). Implementations must support
// deep copying and a binary wire format, which the runtime uses when
// distributing the combination map to reduction maps and when serializing
// maps for global combination.
type RedObj interface {
	// Clone returns a deep copy of the object.
	Clone() RedObj
	// MarshalBinary encodes the object for global combination.
	MarshalBinary() ([]byte, error)
	// UnmarshalBinary decodes into the receiver.
	UnmarshalBinary(data []byte) error
}

// Triggered is implemented by reduction objects that support the early
// emission optimization of Section 4: when Trigger reports true right after
// an accumulate, the runtime converts the object to output immediately and
// erases it from the reduction map, bounding the live map by the window size
// instead of the input size.
type Triggered interface {
	Trigger() bool
}

// Sized is optionally implemented by reduction objects to report their
// approximate in-memory footprint for virtual memory accounting.
type Sized interface {
	SizeBytes() int
}

// CombMap is a combination (or reduction) map: reduction objects keyed by
// the integer keys the application generates. The runtime keeps its own
// sharded store; a CombMap handed to application code is a view of it — a
// new map whose values are the runtime's objects.
type CombMap = map[int]RedObj

// Analytics is the application-facing API (the paper's "functions
// implemented by the user", Table 1). The same implementation runs unchanged
// in time sharing, space sharing, and offline modes. Besides these methods an
// application implements exactly one key generator: Keyer (gen_key, one key
// per unit chunk) or MultiKeyer (gen_keys, several). The app's own methods
// select the path; NewScheduler rejects an app with neither or both.
type Analytics[In, Out any] interface {
	// NewRedObj returns a fresh zero-valued reduction object. The runtime
	// uses it both to lazily create objects for unseen keys and to decode
	// serialized maps during global combination.
	NewRedObj() RedObj
	// Accumulate folds the unit chunk into the reduction object of key
	// (accumulate). Most applications ignore key; position-weighted window
	// convolutions (Savitzky–Golay, Gaussian kernel smoothing) derive the
	// contribution's weight from its offset to the window center.
	Accumulate(key int, c chunk.Chunk, data []In, obj RedObj)
	// Merge folds src into dst, the combination object (merge).
	Merge(src, dst RedObj)
}

// Keyer is implemented by applications whose unit chunks map to exactly one
// key (gen_key). State the key depends on — e.g. k-means centroids — is
// cached by the app in ProcessExtraData/PostCombine rather than read from
// the combination map.
type Keyer[In any] interface {
	GenKey(c chunk.Chunk, data []In) int
}

// MultiKeyer is implemented by applications whose unit chunks map to
// multiple keys (gen_keys; the flatmap-like path of window-based analytics).
// GenKeys appends to keys and returns the extended slice so the runtime can
// reuse one buffer across chunks.
type MultiKeyer[In any] interface {
	GenKeys(c chunk.Chunk, data []In, keys []int) []int
}

// ExtraDataProcessor is implemented by applications that initialize the
// combination map from extra input (process_extra_data), e.g. the initial
// centroids of k-means. com is a view of the combination map; keys the call
// inserts, deletes, or replaces in it are taken in after it returns.
type ExtraDataProcessor interface {
	ProcessExtraData(extra any, com CombMap)
}

// PostCombiner is implemented by iterative applications that update the
// combination map after each combination phase (post_combine), e.g.
// recomputing centroids from sums and counts. Implementations that seed
// per-iteration state through the combination map must reset their
// accumulator fields here, exactly as the paper's k-means update() does.
// Like ProcessExtraData, com is a view; key changes are taken in after the
// call.
type PostCombiner interface {
	PostCombine(com CombMap)
}

// Converter is implemented by applications that transform reduction objects
// into final output values (convert). The integer key selects the output
// slot: out[key-OutBase].
type Converter[Out any] interface {
	Convert(obj RedObj, out *Out)
}

// SchedArgs configures a Scheduler (the paper's SchedArgs).
type SchedArgs struct {
	// NumThreads is the number of analytics threads per process. It should
	// equal the simulation's thread count in time sharing mode.
	NumThreads int
	// ChunkSize is the unit chunk length in elements (e.g. the feature
	// vector length).
	ChunkSize int
	// Extra is the extra analytics input (e.g. initial centroids); it is
	// handed to ProcessExtraData at the start of every Run.
	Extra any
	// NumIters is the number of iterations per Run (>= 1).
	NumIters int
	// BlockSize caps how many elements one block holds; a block is split
	// across threads. Zero means the whole partition is a single block.
	BlockSize int
	// Comm connects the processes of the analytics job. Nil means
	// single-process execution (no global combination traffic).
	Comm *mpi.Comm
	// Mem, when non-nil, charges the runtime's data structures (circular
	// buffer cells, reduction maps) against a virtual memory node and makes
	// Run fail with an OOM error when they exceed its capacity.
	Mem *memmodel.Node
	// OutBase is subtracted from a key to obtain the output slot, letting a
	// node own a window of a globally-indexed output array. Keys mapping
	// outside [0, len(out)) are skipped during conversion.
	OutBase int
	// Sequential forces splits to be processed one after another on the
	// calling goroutine while still recording per-split times. The replay
	// cluster simulator uses this to measure per-thread work on a machine
	// with fewer physical cores than simulated threads.
	Sequential bool
	// BufferCells is the circular buffer capacity for space sharing mode
	// (default 4).
	BufferCells int
	// RedObjBytes estimates the footprint of one reduction object for
	// virtual memory accounting when the object does not implement Sized
	// (default 64).
	RedObjBytes int
	// CombineShards is the shard count S of the combination pipeline. The
	// key space is hash-partitioned into S shards so local combination, the
	// per-iteration distribution step, conversion, and the global
	// combination tree all run shard-parallel. Zero defaults to NumThreads;
	// 1 recovers the serial single-map pipeline (the reference the
	// equivalence tests and ablation benchmarks compare against). The
	// encoded byte format and all results are independent of S. Ranks of one
	// job should agree on S — differing counts stay correct (incoming
	// entries are routed by key, not segment) but lose the one-segment-per-
	// shard alignment of the streamed global combine.
	CombineShards int
	// Obs is the observability sink for phase spans and runtime metrics
	// (reduction-map sizes, keys touched, early emissions, serialized
	// bytes). Nil means obs.Default(), so instrumentation is always on; the
	// hot-path cost is a handful of atomic adds per phase, not per chunk.
	Obs *obs.Observer
}

func (a *SchedArgs) validate() error {
	if a.NumThreads <= 0 {
		return errors.New("core: NumThreads must be positive")
	}
	if a.ChunkSize <= 0 {
		return errors.New("core: ChunkSize must be positive")
	}
	if a.NumIters <= 0 {
		return errors.New("core: NumIters must be positive")
	}
	if a.CombineShards <= 0 {
		return errors.New("core: CombineShards must be positive")
	}
	return nil
}

// withDefaults is the single place zero-valued SchedArgs fields acquire
// their documented defaults; NewScheduler applies it exactly once before
// validate, so every entry point sees identical effective arguments.
func (a *SchedArgs) withDefaults() SchedArgs {
	out := *a
	if out.NumIters == 0 {
		out.NumIters = 1
	}
	if out.BufferCells == 0 {
		out.BufferCells = 4
	}
	if out.RedObjBytes == 0 {
		out.RedObjBytes = 64
	}
	if out.CombineShards == 0 {
		out.CombineShards = out.NumThreads
	}
	return out
}

// feedItem is one buffered time-step in space sharing mode.
type feedItem[In any] struct {
	data []In
	mem  *memmodel.Allocation
}

// Scheduler is the Smart runtime scheduler (the paper's Scheduler class).
// Construct one per analytics job with NewScheduler. A Scheduler is not safe
// for concurrent Run calls; space sharing's single producer (Feed) and
// single consumer (RunShared) pair is the supported concurrency.
type Scheduler[In, Out any] struct {
	app        Analytics[In, Out]
	args       SchedArgs
	globalComb bool
	// store is the combination map, sharded for the parallel combination
	// pipeline. It is the only copy: application code receives flat views
	// (store.view) and hooks that mutate keys are taken back in with
	// store.reseed.
	store *arenaStore
	// newObj is app.NewRedObj bound once, so store factories and decode
	// paths never rebuild the method value.
	newObj func() RedObj
	// gcScratch is the reusable per-shard serialization buffer of the global
	// combination phase: both transports copy payloads out during Send, so
	// one buffer serves every segment of every round.
	gcScratch []byte
	buf       *ringbuf.Buffer[feedItem[In]]
	stats     Stats
	obs       *obs.Observer
	met       schedMetrics
	// spanSubs receives every phase span this scheduler emits from its
	// coordinating goroutine. Append via SubscribeSpans before the first
	// Run — the slice is read without a lock on the phase path.
	spanSubs []func(obs.Span)
	// emitSubs receives every early emission (SubscribeEarlyEmits); like
	// spanSubs it is appended before the first Run and read without a lock,
	// but it fires from reduction worker goroutines.
	emitSubs []func(key int, value Out)
	// cancelled is raised by RunContext's watcher when the run's context
	// completes; the chunk loops poll it so a cancelled run stops within one
	// chunk per thread.
	cancelled atomic.Bool
	// runCtx is the active run's context; reduction workers consult it
	// directly every cancelPollMask+1 chunks as a backstop when the watcher
	// goroutine is starved. Written by the coordinating goroutine before
	// workers spawn.
	runCtx context.Context
	// redMaps holds one reduction store per thread; thread t's split of
	// every block of an iteration accumulates into redMaps[t]. The slots
	// persist across iterations so their storage is reused (newSegStore).
	redMaps []*arenaStore
	// traceCtx, when valid, is the distributed-trace context every phase
	// span of this scheduler parents under (SetTraceContext). Written
	// between runs by the coordinating goroutine.
	traceCtx obs.TraceContext
	// pprofLabels gates wrapping the reduction workers in a runtime/pprof
	// phase label so CPU profiles attribute samples to phases. Off by
	// default: label push/pop is cheap but not free, and the bench harness
	// measures the unlabeled hot path.
	pprofLabels bool

	// the app's key generator: exactly one of keyer and multi is set
	keyer Keyer[In]
	multi MultiKeyer[In]
	// cached optional capabilities of app
	extraProc ExtraDataProcessor
	postComb  PostCombiner
	converter Converter[Out]
	// hasTrigger caches whether the app's reduction objects implement
	// Triggered, keeping the type assertion out of the per-chunk hot loop
	// for the applications that never emit early.
	hasTrigger bool
}

// NewScheduler creates a scheduler for the given application and arguments.
func NewScheduler[In, Out any](app Analytics[In, Out], args SchedArgs) (*Scheduler[In, Out], error) {
	a := args.withDefaults()
	if err := a.validate(); err != nil {
		return nil, err
	}
	var anyApp any = app
	keyer, _ := anyApp.(Keyer[In])
	multi, _ := anyApp.(MultiKeyer[In])
	if (keyer == nil) == (multi == nil) {
		return nil, errors.New("core: the application must implement exactly one of GenKey (Keyer) and GenKeys (MultiKeyer)")
	}
	s := &Scheduler[In, Out]{
		app:        app,
		keyer:      keyer,
		multi:      multi,
		args:       a,
		newObj:     app.NewRedObj,
		globalComb: true,
		buf:        ringbuf.New[feedItem[In]](a.BufferCells),
		obs:        a.Obs,
	}
	s.store = newArenaStore(a.CombineShards, s.newObj)
	if s.obs == nil {
		s.obs = obs.Default()
	}
	s.met.init(s.obs.Registry())
	s.extraProc, _ = anyApp.(ExtraDataProcessor)
	s.postComb, _ = anyApp.(PostCombiner)
	s.converter, _ = anyApp.(Converter[Out])
	_, s.hasTrigger = app.NewRedObj().(Triggered)
	return s, nil
}

// MustNewScheduler is NewScheduler that panics on invalid arguments, for
// examples and tests.
func MustNewScheduler[In, Out any](app Analytics[In, Out], args SchedArgs) *Scheduler[In, Out] {
	s, err := NewScheduler[In, Out](app, args)
	if err != nil {
		panic(err)
	}
	return s
}

// SetGlobalCombination enables or disables the global combination phase
// (enabled by default). With it disabled, each process retrieves its local
// result in the parallel code region — the building block for MapReduce
// pipelines of Smart jobs.
func (s *Scheduler[In, Out]) SetGlobalCombination(on bool) { s.globalComb = on }

// CombinationMap returns a snapshot of the combination map (the paper's
// get_combination_map). After a Run with global combination it holds the
// global result on every process. The map is new on every call and its
// values are the scheduler's own objects: changing an object's state is
// visible to the scheduler, but adding or removing keys in the returned map
// is not. Every caller in this repository only reads it.
func (s *Scheduler[In, Out]) CombinationMap() CombMap { return s.store.view() }

// ResetCombinationMap clears accumulated state so the scheduler can be
// reused for an unrelated time-step, mirroring Listing 1's fresh scheduler
// per time-step without reallocating the runtime: the store's index, arena,
// and slabs are cleared in place and reused by the next run.
func (s *Scheduler[In, Out]) ResetCombinationMap() { s.store.clear() }

// Stats returns counters describing the most recent Run.
//
// The returned pointer is the scheduler's live counter block: the run loop
// mutates it (partly via atomics, partly plain stores), so reading through
// it while a Run, RunShared, or a served job is in flight is a data race.
// Use Stats().Snapshot() for a copy that is safe to read, serialize, or
// report while the scheduler may still be running.
func (s *Scheduler[In, Out]) Stats() *Stats { return &s.stats }

// Observer returns the observability sink this scheduler reports into
// (SchedArgs.Obs, or the process default).
func (s *Scheduler[In, Out]) Observer() *obs.Observer { return s.obs }

// SetTraceContext places this scheduler's phase spans in a distributed
// trace: every phase span records tc.TraceID as its trace and tc.SpanID as
// its parent (conventionally the job's root span, started on rank 0 with
// Observer.StartSpan and spread to the other ranks by the first collective
// — read it off the communicator with Comm.TraceContext after a barrier).
// During global combination the scheduler temporarily re-points the
// communicator's context at the phase's own span, so collective spans nest
// under the phase rather than the root. Passing the zero context disables
// tracing again. Call between runs, not mid-run; as a convenience it also
// attaches the scheduler's observer as the communicator's collective tracer.
func (s *Scheduler[In, Out]) SetTraceContext(tc obs.TraceContext) {
	s.traceCtx = tc
	if s.args.Comm != nil && tc.Valid() {
		s.args.Comm.SetTracer(s.obs)
	}
}

// SetPprofLabels toggles a runtime/pprof label (phase="reduction") around
// the reduction worker goroutines, letting CPU and goroutine profiles
// attribute samples to the reduction phase. Job-level labels (job, tenant,
// app) are the caller's to set via pprof.Do around Run — worker goroutines
// inherit them.
func (s *Scheduler[In, Out]) SetPprofLabels(on bool) { s.pprofLabels = on }

// SubscribeSpans registers fn to receive every phase span this scheduler
// emits ("reduction", "local combine", "global combine", "post combine",
// "convert", and "read" in space sharing mode). fn is invoked synchronously
// from the scheduler's coordinating goroutine. Subscribe before the first
// Run; the subscriber list is not synchronized against concurrent phases.
func (s *Scheduler[In, Out]) SubscribeSpans(fn func(obs.Span)) {
	s.spanSubs = append(s.spanSubs, fn)
}

// SubscribeEarlyEmits registers fn to receive every early-emitted output
// value — a reduction object whose Trigger fired, already converted into its
// output slot (Section 4's early emission). Final conversions at the end of
// a Run are not delivered; this is the live stream of results that finalize
// mid-run, which the serving layer forwards to clients before the run
// converges. fn is invoked from reduction worker goroutines, potentially
// concurrently, and must be fast and safe for concurrent use. Subscribe
// before the first Run. Emissions for keys outside [OutBase, OutBase+len(out))
// or on schedulers without a Converter are not observable and are skipped.
func (s *Scheduler[In, Out]) SubscribeEarlyEmits(fn func(key int, value Out)) {
	s.emitSubs = append(s.emitSubs, fn)
}

// sizeOfRedObj returns the accounted footprint of one reduction object.
func (s *Scheduler[In, Out]) sizeOfRedObj(obj RedObj) int {
	if sz, ok := obj.(Sized); ok {
		return sz.SizeBytes()
	}
	return s.args.RedObjBytes
}
