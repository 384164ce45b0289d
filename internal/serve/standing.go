package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"github.com/scipioneer/smart/internal/analytics"
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

// standingCombiner compiles the spec's application into a windowed combiner.
// The per-window result payloads mirror the batch builders' result maps so a
// standing query's windows read like a sequence of small batch results.
func standingCombiner(spec JobSpec, mem *memmodel.Node) (stream.Combiner, error) {
	args := core.SchedArgs{NumThreads: spec.Threads, ChunkSize: 1, NumIters: 1, Mem: mem}
	p := spec.Params
	switch spec.App {
	case "histogram":
		lo, hi := rangeOr(p)
		buckets := p.Buckets
		if buckets == 0 {
			buckets = 100
		}
		if buckets < 0 || buckets > 1<<16 {
			return nil, fmt.Errorf("serve: histogram buckets must be in (0, 65536]")
		}
		return stream.NewSchedCombiner(stream.SchedOptions[int64]{
			Build: func(int) (core.Analytics[float64, int64], error) {
				return analytics.NewHistogram(lo, hi, buckets), nil
			},
			Args:   args,
			OutLen: func(int) int { return buckets },
			Result: func(_ *core.Scheduler[float64, int64], out []int64) (any, error) {
				return map[string]any{"buckets": append([]int64(nil), out...), "lo": lo, "hi": hi}, nil
			},
		})
	case "gridagg":
		gs := p.GridSize
		if gs == 0 {
			gs = 1000
		}
		if gs < 0 {
			return nil, fmt.Errorf("serve: grid_size must be positive")
		}
		return stream.NewSchedCombiner(stream.SchedOptions[float64]{
			Build: func(int) (core.Analytics[float64, float64], error) {
				return analytics.NewGridAgg(gs, 0), nil
			},
			Args:   args,
			OutLen: func(n int) int { return (n + gs - 1) / gs },
			Result: func(_ *core.Scheduler[float64, float64], out []float64) (any, error) {
				return map[string]any{"cells": append([]float64(nil), out...), "grid_size": gs}, nil
			},
		})
	case "moments":
		gs := p.GridSize
		if gs == 0 {
			gs = 1000
		}
		if gs < 0 {
			return nil, fmt.Errorf("serve: grid_size must be positive")
		}
		return stream.NewSchedCombiner(stream.SchedOptions[float64]{
			Build: func(int) (core.Analytics[float64, float64], error) {
				return analytics.NewMoments(gs, 0), nil
			},
			Args:   args,
			OutLen: func(n int) int { return (n + gs - 1) / gs },
			Result: func(_ *core.Scheduler[float64, float64], out []float64) (any, error) {
				return map[string]any{"variance": append([]float64(nil), out...), "grid_size": gs}, nil
			},
		})
	case "movingavg":
		win := p.Window
		if win == 0 {
			win = 25
		}
		if win < 0 {
			return nil, fmt.Errorf("serve: window must be positive")
		}
		return stream.NewSchedCombiner(stream.SchedOptions[float64]{
			Build: func(n int) (core.Analytics[float64, float64], error) {
				if win > n {
					return nil, fmt.Errorf("serve: moving-average window %d wider than the %d-element query window", win, n)
				}
				return analytics.NewMovingAverage(win, n, 0, true), nil
			},
			Args:    args,
			PerSize: true,
			Multi:   true,
			OutLen:  func(n int) int { return n },
			Result: func(_ *core.Scheduler[float64, float64], out []float64) (any, error) {
				head := out
				if len(head) > 32 {
					head = head[:32]
				}
				return map[string]any{"len": len(out), "head": append([]float64(nil), head...)}, nil
			},
		})
	default:
		return nil, fmt.Errorf("serve: app %q has no standing-query form (have histogram, gridagg, moments, movingavg)", spec.App)
	}
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
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
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
// application becomes a stream combiner, the deterministic emulator stream
// becomes the source (event time = step index), fired windows stream out as
// "window" records, and a drain checkpoint persists the pipeline snapshot —
// open windows travel across the restart, fired ones do not, so a resumed
// query emits each window exactly once.
func buildStanding(spec JobSpec, mem *memmodel.Node, comm *mpi.Comm) (*jobProgram, error) {
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
	comb, err := standingCombiner(spec, mem)
	if err != nil {
		return nil, err
	}

	var (
		mu    sync.Mutex
		skip  int
		snap  *stream.Snapshot // restored state, applied at run start
		pipe  *stream.Pipeline // live pipeline, for checkpointing
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
			if ts, ok := comb.(interface{ SetTraceContext(obs.TraceContext) }); ok {
				ts.SetTraceContext(tc)
			}
		},
	}
	prog.checkpoint = func(path string) error {
		mu.Lock()
		p := pipe
		mu.Unlock()
		return writeSnapshotCheckpoint(path, p)
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
		mu.Unlock()
		done.Store(int64(startStep))

		// The drain shield lets an in-flight window combine finish; the
		// source stops at the next step boundary, Run surfaces the drain
		// cause with every open window intact, and the checkpoint snapshots
		// exactly that state.
		stepCtx, stop := drainShield(ctx)
		defer stop()

		gen := stream.Generator(stream.GeneratorConfig{
			Steps: spec.Steps - startStep, StepElems: spec.Elems,
			Seed: spec.Seed, StartStep: startStep,
		})
		src := stream.SourceFunc(func(fctx context.Context, push func(stream.Event) error) error {
			return gen.Feed(fctx, func(ev stream.Event) error {
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

		var windows, panes atomic.Int64
		p := stream.New().
			From(src).
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
		mu.Lock()
		if trace.Valid() {
			if ts, ok := comb.(interface{ SetTraceContext(obs.TraceContext) }); ok {
				ts.SetTraceContext(trace)
			}
		}
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
		res := map[string]any{
			"kind": KindStanding, "windows": windows.Load(), "panes": panes.Load(),
			"steps": done.Load(),
		}
		if sc, ok := comb.(interface{ Stats() *core.Stats }); ok {
			if st := sc.Stats(); st != nil {
				res["stats"] = statsView(st.Snapshot())
			}
		}
		return res, nil
	}
	return prog, nil
}
