package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/stream"
)

// Job kinds. KindBatch runs to one final result; KindStanding is a
// continuous windowed query over the step stream.
const (
	KindBatch    = "batch"
	KindStanding = "standing"
)

// windowSpecOf translates a spec's window params into a stream.WindowSpec,
// validating eagerly so a bad spec is a 400 at the front door.
func windowSpecOf(p Params) (stream.WindowSpec, error) {
	size := p.WindowSize
	if size == 0 {
		size = 8
	}
	if size < 0 {
		return stream.WindowSpec{}, fmt.Errorf("serve: window_size must be positive")
	}
	switch p.WindowKind {
	case "", "tumbling":
		return stream.Tumbling(size), nil
	case "sliding":
		slide := p.WindowSlide
		if slide == 0 {
			slide = (size + 1) / 2
		}
		if slide < 0 || slide > size {
			return stream.WindowSpec{}, fmt.Errorf("serve: window_slide must be in (0, window_size]")
		}
		return stream.Sliding(size, slide), nil
	case "session":
		return stream.Session(size), nil
	case "global":
		return stream.Global(), nil
	default:
		return stream.WindowSpec{}, fmt.Errorf("serve: unknown window_kind %q (have tumbling, sliding, session, global)", p.WindowKind)
	}
}

// latePolicyOf parses the late-data policy param.
func latePolicyOf(p Params) (stream.LatePolicy, error) {
	switch p.Late {
	case "", "drop":
		return stream.LateDrop, nil
	case "side_output":
		return stream.LateSideOutput, nil
	default:
		return 0, fmt.Errorf("serve: unknown late policy %q (have drop, side_output)", p.Late)
	}
}

// schedCombiner is a windowed combiner running on core.Scheduler
// (stream.SchedCombiner): its runs join the job's trace and report stats.
type schedCombiner interface {
	stream.Combiner
	SetTraceContext(tc obs.TraceContext)
	Stats() *core.Stats
}

// standingCheckpoint is the durable form of a drained streaming job: the
// pipeline snapshot (open windows, watermarks, ingest sequences). The
// consumed-step count travels in the resume sidecar like every other job.
type standingCheckpoint struct {
	V        int              `json:"v"`
	Snapshot *stream.Snapshot `json:"snapshot"`
}

// writeSnapshotCheckpoint snapshots a pipeline and persists it crash-safely.
func writeSnapshotCheckpoint(path string, p *stream.Pipeline) error {
	if p == nil {
		return fmt.Errorf("serve: streaming job never ran, nothing to checkpoint")
	}
	s, err := p.Snapshot()
	if err != nil {
		return err
	}
	buf, err := json.Marshal(standingCheckpoint{V: 1, Snapshot: s})
	if err != nil {
		return err
	}
	return writeFileAtomic(path, buf)
}

// readSnapshotCheckpoint loads a snapshot checkpoint written by
// writeSnapshotCheckpoint.
func readSnapshotCheckpoint(path string) (*stream.Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck standingCheckpoint
	if err := json.Unmarshal(buf, &ck); err != nil {
		return nil, fmt.Errorf("serve: bad streaming checkpoint %s: %w", path, err)
	}
	if ck.Snapshot == nil {
		return nil, fmt.Errorf("serve: streaming checkpoint %s has no snapshot", path)
	}
	return ck.Snapshot, nil
}

// buildStanding compiles a standing (continuous windowed) job: the spec's
// application becomes a stream combiner (compile, nil for an application
// with no standing form), the deterministic emulator stream becomes the
// source (event time = step index), fired windows stream out as "window"
// records, and a drain checkpoint persists the pipeline snapshot — open
// windows travel across the restart, fired ones do not, so a resumed query
// emits each window exactly once.
func buildStanding(spec JobSpec, compile func(JobSpec, *memmodel.Node) (schedCombiner, error),
	mem *memmodel.Node, comm *mpi.Comm) (*Program, error) {
	if comm != nil {
		return nil, fmt.Errorf("serve: standing queries cannot span cluster ranks")
	}
	ws, err := windowSpecOf(spec.Params)
	if err != nil {
		return nil, err
	}
	pol, err := latePolicyOf(spec.Params)
	if err != nil {
		return nil, err
	}
	if spec.Params.AllowedLateness < 0 {
		return nil, fmt.Errorf("serve: allowed_lateness must be non-negative")
	}
	if compile == nil {
		var have []string
		for _, name := range Apps() {
			if registry[name].standing != nil {
				have = append(have, name)
			}
		}
		return nil, fmt.Errorf("serve: app %q has no standing-query form (have %s)", spec.App, strings.Join(have, ", "))
	}
	comb, err := compile(spec, mem)
	if err != nil {
		return nil, err
	}
	source := func(_ context.Context, start int) (stream.Source, error) {
		return stream.Generator(stream.GeneratorConfig{
			Steps: spec.Steps - start, StepElems: spec.Elems,
			Seed: spec.Seed, StartStep: start,
		}), nil
	}
	wire := func(steps stream.Source, emit func(StreamRecord), _ obs.TraceContext) (*stream.Pipeline, func(int64) (any, error)) {
		var windows, panes atomic.Int64
		p := stream.New().
			From(steps).
			Window(ws).
			Trigger(stream.Trigger{EarlyEmits: true}).
			OnLate(pol).
			AllowedLateness(spec.Params.AllowedLateness).
			Combine(comb).
			OnEmit(func(w stream.Window, key int, value any) {
				emit(StreamRecord{Type: "emit", Key: key, Value: value, WinStart: w.Start, WinEnd: w.End})
			}).
			SideOutput(func(ev stream.Event, w stream.Window) {
				emit(StreamRecord{Type: "late", Step: int(ev.Time), WinStart: w.Start, WinEnd: w.End})
			}).
			To(stream.CallbackSink(func(res stream.WindowResult) error {
				if res.Final {
					windows.Add(1)
				}
				panes.Add(1)
				emit(StreamRecord{
					Type: "window", WinStart: res.Window.Start, WinEnd: res.Window.End,
					Pane: res.Pane, Final: res.Final, Value: res.Value,
				})
				return nil
			}))
		return p, func(steps int64) (any, error) {
			res := map[string]any{
				"kind": KindStanding, "windows": windows.Load(), "panes": panes.Load(),
				"steps": steps,
			}
			if st := comb.Stats(); st != nil {
				res["stats"] = statsView(st.Snapshot())
			}
			return res, nil
		}
	}
	return pipelineProgram(comb, source, wire), nil
}

// pipelineProgram is the run skeleton of the jobs compiled onto a stream
// pipeline. source returns the step stream from step start on; wire builds
// the pipeline over the counted steps (emit forwards its records, tc is the
// job's trace) and returns it with the function that shapes the result once
// the pipeline drains. traced is the combiner the job's trace reaches. The
// skeleton counts steps and streams a "step" record per step, stops at a
// step boundary on drain, and checkpoints and restores the pipeline
// snapshot.
func pipelineProgram(traced schedCombiner,
	source func(ctx context.Context, start int) (stream.Source, error),
	wire func(steps stream.Source, emit func(StreamRecord), tc obs.TraceContext) (*stream.Pipeline, func(steps int64) (any, error)),
) *Program {
	var (
		mu    sync.Mutex
		skip  int
		snap  *stream.Snapshot // restored state, applied at run start
		pipe  *stream.Pipeline // live pipeline, for checkpointing
		trace obs.TraceContext
		done  atomic.Int64
	)
	prog := &Program{
		setSkip:   func(n int) { mu.Lock(); skip = n; mu.Unlock() },
		stepsDone: func() int { return int(done.Load()) },
		setTrace: func(tc obs.TraceContext) {
			mu.Lock()
			trace = tc
			mu.Unlock()
			traced.SetTraceContext(tc)
		},
		checkpoint: func(path string) error {
			mu.Lock()
			p := pipe
			mu.Unlock()
			return writeSnapshotCheckpoint(path, p)
		},
		restore: func(path string) error {
			s, err := readSnapshotCheckpoint(path)
			if err != nil {
				return err
			}
			mu.Lock()
			snap = s
			mu.Unlock()
			return nil
		},
	}
	prog.run = func(ctx context.Context, emit func(StreamRecord)) (any, error) {
		mu.Lock()
		start, restored, tc := skip, snap, trace
		mu.Unlock()
		done.Store(int64(start))

		// The drain shield lets an in-flight window combine finish; the
		// source stops at the next step boundary, Run surfaces the drain
		// cause with every open window intact, and the checkpoint snapshots
		// exactly that state.
		stepCtx, stop := drainShield(ctx)
		defer stop()

		src, err := source(ctx, start)
		if err != nil {
			return nil, err
		}
		counted := stream.SourceFunc(func(fctx context.Context, push func(stream.Event) error) error {
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
		p, result := wire(counted, emit, tc)
		mu.Lock()
		pipe = p
		mu.Unlock()
		if restored != nil {
			if err := p.Restore(restored); err != nil {
				return nil, err
			}
		}
		if err := p.Run(stepCtx); err != nil {
			return nil, err
		}
		return result(done.Load())
	}
	return prog
}
