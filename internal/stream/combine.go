package stream

import (
	"context"
	"fmt"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/obs"
)

// Combiner lowers one fired window onto a batch reduction: Combine runs
// over exactly the window's elements (in the pipeline's canonical event
// order) and returns the sink-visible value. Calls arrive one at a time
// from the pipeline's driving goroutine.
type Combiner interface {
	Combine(ctx context.Context, w Window, elems []float64) (any, error)
}

// CombinerFunc adapts a function to the Combiner interface.
type CombinerFunc func(ctx context.Context, w Window, elems []float64) (any, error)

// Combine implements Combiner.
func (f CombinerFunc) Combine(ctx context.Context, w Window, elems []float64) (any, error) {
	return f(ctx, w, elems)
}

// emitSubscriber is the optional capability of combiners that can forward
// the runtime's per-key early emissions (Trigger.EarlyEmits).
type emitSubscriber interface {
	subscribeEmits(fn func(key int, value any))
}

// traceSettable is the optional capability of combiners whose phase spans
// can be parented under a distributed trace (standing smartd jobs).
type traceSettable interface {
	SetTraceContext(tc obs.TraceContext)
}

// SchedOptions configures a SchedCombiner — the bridge from a registered
// reduction app to the streaming layer.
type SchedOptions[Out any] struct {
	// Build constructs the analytics application for a window of n
	// elements. Apps whose key space is independent of n (histogram,
	// k-means, grid aggregation) ignore n; the window family (moving
	// average and friends) sizes its key space by it.
	Build func(n int) (core.Analytics[float64, Out], error)
	// Args are the scheduler arguments every window's run shares.
	Args core.SchedArgs
	// PerSize marks Build as n-dependent: the scheduler is rebuilt
	// whenever the fired window's element count differs from the previous
	// one. Fixed-size tumbling windows still recycle every fire; only a
	// size change pays the rebuild.
	PerSize bool
	// OutLen gives the converted-output length for a window of n elements;
	// nil or a zero return skips conversion (Result then typically reads
	// the combination map).
	OutLen func(n int) int
	// Result extracts the sink-visible value after a run. nil defaults to
	// a copy of the converted output slice.
	Result func(s *core.Scheduler[float64, Out], out []Out) (any, error)
}

// SchedCombiner compiles windows onto a core.Scheduler. One scheduler
// instance is kept warm across fires: each fire clears it in place
// (ResetCombinationMap) and re-enters RunContext, so the sharded store's
// shards and arena slabs and the per-thread reduction stores survive from
// window to window; the output of every fire is byte-identical to a fresh
// scheduler run over the same elements.
type SchedCombiner[Out any] struct {
	opts    SchedOptions[Out]
	sched   *core.Scheduler[float64, Out]
	schedN  int
	out     []Out
	emitFns []func(key int, value any)
	trace   obs.TraceContext
}

// NewSchedCombiner validates the options and returns a combiner; the
// scheduler itself is built lazily on the first fired window.
func NewSchedCombiner[Out any](opts SchedOptions[Out]) (*SchedCombiner[Out], error) {
	if opts.Build == nil {
		return nil, fmt.Errorf("stream: SchedOptions.Build is required")
	}
	// Surface argument errors at pipeline-build time, not first fire.
	if _, err := core.NewScheduler[float64, Out](nullApp[Out]{}, opts.Args); err != nil {
		return nil, err
	}
	return &SchedCombiner[Out]{opts: opts}, nil
}

// nullApp is a do-nothing analytics used to validate SchedArgs eagerly.
type nullApp[Out any] struct{}

func (nullApp[Out]) NewRedObj() core.RedObj                              { return &nullObj{} }
func (nullApp[Out]) GenKey(chunk.Chunk, []float64) int                   { return 0 }
func (nullApp[Out]) Accumulate(int, chunk.Chunk, []float64, core.RedObj) {}
func (nullApp[Out]) Merge(src, dst core.RedObj)                          {}

type nullObj struct{}

func (o *nullObj) Clone() core.RedObj             { return &nullObj{} }
func (o *nullObj) MarshalBinary() ([]byte, error) { return nil, nil }
func (o *nullObj) UnmarshalBinary(b []byte) error { return nil }

// Combine implements Combiner: recycle (or rebuild, on a size change of a
// PerSize app) and run one batch reduction over the window's elements.
func (c *SchedCombiner[Out]) Combine(ctx context.Context, w Window, elems []float64) (any, error) {
	n := len(elems)
	if c.sched == nil || (c.opts.PerSize && n != c.schedN) {
		app, err := c.opts.Build(n)
		if err != nil {
			return nil, err
		}
		s, err := core.NewScheduler[float64, Out](app, c.opts.Args)
		if err != nil {
			return nil, err
		}
		for _, fn := range c.emitFns {
			s.SubscribeEarlyEmits(wrapEmit[Out](fn))
		}
		if c.trace.Valid() {
			s.SetTraceContext(c.trace)
		}
		c.sched, c.schedN = s, n
	}
	outLen := 0
	if c.opts.OutLen != nil {
		outLen = c.opts.OutLen(n)
	}
	if cap(c.out) < outLen {
		c.out = make([]Out, outLen)
	} else {
		c.out = c.out[:outLen]
		clear(c.out)
	}
	c.sched.ResetCombinationMap()
	if err := c.sched.RunContext(ctx, elems, c.out); err != nil {
		return nil, err
	}
	if c.opts.Result != nil {
		return c.opts.Result(c.sched, c.out)
	}
	return append([]Out(nil), c.out...), nil
}

// wrapEmit erases the scheduler's typed early-emit callback.
func wrapEmit[Out any](fn func(key int, value any)) func(key int, value Out) {
	return func(key int, value Out) { fn(key, value) }
}

// subscribeEmits implements the pipeline's early-emit capability.
func (c *SchedCombiner[Out]) subscribeEmits(fn func(key int, value any)) {
	c.emitFns = append(c.emitFns, fn)
	if c.sched != nil {
		c.sched.SubscribeEarlyEmits(wrapEmit[Out](fn))
	}
}

// SetTraceContext parents every window run's phase spans under the given
// trace (applies to the current scheduler and any rebuilt later).
func (c *SchedCombiner[Out]) SetTraceContext(tc obs.TraceContext) {
	c.trace = tc
	if c.sched != nil {
		c.sched.SetTraceContext(tc)
	}
}

// Stats exposes the live counters of the most recent window's run (nil
// before the first fire). See core.Scheduler.Stats for the concurrency
// caveat.
func (c *SchedCombiner[Out]) Stats() *core.Stats {
	if c.sched == nil {
		return nil
	}
	return c.sched.Stats()
}
