// Package stream is the streaming operator layer over the Smart runtime:
// continuous windowed queries compiled down to batch Scheduler runs.
//
// A pipeline is a typed chain
//
//	Source → Map → Window → Combine → Sink
//
// in the Dataflow/Akidau style: event-time windows (tumbling, sliding,
// session, global), per-source watermarks merged by minimum, trigger
// policies (on-watermark final panes, count-based early panes, forwarded
// per-key early emissions), and a late-data policy (drop or side-output).
// The paper's early-emission optimization (core.Triggered) is the special
// case the trigger layer generalizes.
//
// The compiler is deliberately thin: every fired window becomes one batch
// reduction over exactly that window's elements, lowered onto an existing
// core.Scheduler, reset in place and re-entered through RunContext. The
// sharded store, static schedule, and codec'd global combination are
// reused unchanged, so a window's output is byte-identical to a one-shot
// batch run over the same elements — the property the oracle tests pin.
//
// Stages chain: a fired window's result can be remapped into an event for a
// downstream Window/Combine stage (ThenMap), which is how the two-stage
// grid→histogram pipeline is expressed without bespoke glue.
package stream

import "context"

// Event is one timestamped element batch on a stream. Time is the event
// time in abstract ticks — for in-situ analytics, the simulation step
// index. Data is the batch payload (one simulation step's elements, one
// replayed record, ...).
type Event struct {
	Time int64
	Data []float64
}

// Source feeds events into a pipeline. Feed pushes events until the stream
// ends (return nil), the context is cancelled, or push returns an error
// (return it unwrapped so the pipeline can classify it).
//
// The pipeline buffers Data by reference until the covering windows fire: a
// source that reuses its output buffer between pushes (an in-situ
// simulation handing out its live field) must push a copy.
//
// Event times should be non-decreasing up to the pipeline's allowed
// lateness; events older than the watermark are handled by the stage's
// late-data policy.
type Source interface {
	Feed(ctx context.Context, push func(Event) error) error
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func(ctx context.Context, push func(Event) error) error

// Feed implements Source.
func (f SourceFunc) Feed(ctx context.Context, push func(Event) error) error {
	return f(ctx, push)
}
