package core

import (
	"fmt"

	"github.com/scipioneer/smart/internal/chunk"
)

// Engine names accepted by SchedArgs.Engine.
const (
	// EngineStatic is the paper's reference schedule: every block is cut
	// into one equal chunk-aligned split per thread, fixed up front.
	EngineStatic = "static"
	// EngineStealing is the work-stealing schedule: the same initial ranges,
	// but threads claim adaptive chunk batches from a deque and steal the
	// back half of a straggler's remaining range when their own runs dry.
	EngineStealing = "stealing"
)

// runEnv bundles the per-run state the scheduler threads through its
// execution engine: the input and output arrays, the key-generation mode,
// the iteration's read-only view of the combination map for GenKey/GenKeys,
// and the live-object and memory accounting shared by every worker.
type runEnv[In, Out any] struct {
	in      []In
	out     []Out
	multi   bool
	com     CombMap
	live    *liveCounter
	tracker *memTracker
}

// engine is the pluggable reduction-phase executor. The scheduler's run loop
// owns the phase sequence (distribute → reduce blocks → local combine →
// global combine → post-combine → convert); the engine owns how reduction
// work is assigned to threads and which reduction maps ("segments") it
// accumulates into. Everything downstream of reduction is engine-agnostic:
// local combination folds whatever segments the engine produced.
type engine[In, Out any] interface {
	// name reports the SchedArgs.Engine value that selected this engine.
	name() string
	// distribute prepares the engine's segment reduction maps for one
	// iteration, deep-cloning the combination map into each (the paper's
	// per-iteration distribution step). Called once per iteration, before
	// the first reduceBlock.
	distribute(env *runEnv[In, Out])
	// reduceBlock consumes one block of the input, accumulating into the
	// engine's segments. Called serially, once per block.
	reduceBlock(block chunk.Split, env *runEnv[In, Out]) error
	// segments surrenders every reduction store populated since distribute,
	// ordered by the input offset of the range that fed it — local
	// combination merges them in this order, so each key's partial results
	// merge in ascending input order regardless of which thread produced
	// them. The caller owns the stores until the next distribute; the engine
	// retains references to its per-thread slots so their storage is reused
	// next iteration.
	segments() []*arenaStore
}

// newEngine constructs the engine selected by the (defaulted, validated)
// scheduler arguments.
func newEngine[In, Out any](s *Scheduler[In, Out]) engine[In, Out] {
	switch s.args.Engine {
	case EngineStealing:
		return &stealingEngine[In, Out]{s: s}
	case EngineStatic:
		return &staticEngine[In, Out]{s: s}
	}
	// validate has already rejected anything else.
	panic(fmt.Sprintf("core: unknown engine %q", s.args.Engine))
}

// distributeInto deep-clones the combination map into every target reduction
// store, shard-parallel: each worker clones its shard for every target, so
// the per-iteration clone cost scales with cores instead of riding the
// coordinating goroutine. Shared by both engines for their primary segments.
// insertClone is the store's clone-seed: it assigns into slab slots for
// FixedSizeObj applications and clones through RedObj.Clone otherwise.
func (s *Scheduler[In, Out]) distributeInto(stores []*arenaStore, env *runEnv[In, Out]) {
	forShards(s.store.numShards(), s.phaseWorkers(), func(si int) {
		s.store.forEachIn(si, func(k int, obj RedObj) {
			for t := range stores {
				c := stores[t].insertClone(k, obj)
				env.live.add(1)
				env.tracker.add(int64(s.sizeOfRedObj(c)))
			}
		})
	})
}

// newSegStore returns one engine segment store: prev cleared in place, reusing
// its index, arena, and slab storage, or a fresh store when there is none.
func (s *Scheduler[In, Out]) newSegStore(prev *arenaStore) *arenaStore {
	if prev != nil {
		prev.clear()
		return prev
	}
	return newArenaStore(s.store.numShards(), s.newObj)
}
