package harness

import (
	"context"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/stream"
)

// FigStream is the streaming-layer experiment (extension beyond the paper,
// which runs one batch reduction per invocation): sustained window
// throughput of a continuous tumbling histogram query as the window widens,
// comparing the warm path — one SchedCombiner whose combination map is
// recycled in place between fires — against a fresh scheduler built for
// every window. The gap is the setup cost the in-place reset amortizes away;
// it narrows as windows widen and per-element work starts to dominate.
func FigStream(scale Scale) (*Result, error) {
	res := &Result{
		Figure: "Stream",
		Title:  "Continuous windowed queries: warm reseed vs per-window rebuild",
		XLabel: "steps per tumbling window",
		YLabel: "windows per second",
	}
	totalSteps := scale.pick(64, 256)
	elemsPerStep := scale.pick(1<<10, 1<<12)
	args := core.SchedArgs{NumThreads: 2, ChunkSize: 1, CombineShards: 4}

	data := make([]float64, elemsPerStep)
	for i := range data {
		data[i] = float64((i*37)%200)/10 - 5
	}
	src := func() stream.Source {
		return stream.SourceFunc(func(ctx context.Context, push func(stream.Event) error) error {
			for t := 0; t < totalSteps; t++ {
				if err := push(stream.Event{Time: int64(t), Data: data}); err != nil {
					return err
				}
			}
			return nil
		})
	}

	type mode struct {
		name string
		comb func() (stream.Combiner, error)
	}
	modes := []mode{
		{"reseed", func() (stream.Combiner, error) {
			return stream.NewSchedCombiner[int64](stream.SchedOptions[int64]{
				Build: func(int) (core.Analytics[float64, int64], error) {
					return analytics.NewHistogram(-5, 5, 32), nil
				},
				Args: args,
			})
		}},
		{"rebuild", func() (stream.Combiner, error) {
			return stream.CombinerFunc(func(ctx context.Context, _ stream.Window, elems []float64) (any, error) {
				s, err := core.NewScheduler[float64, int64](analytics.NewHistogram(-5, 5, 32), args)
				if err != nil {
					return nil, err
				}
				if err := s.RunContext(ctx, elems, nil); err != nil {
					return nil, err
				}
				return nil, nil
			}), nil
		}},
	}

	type latencyProbe struct {
		winSteps int
		mean     time.Duration
	}
	var probes []latencyProbe
	for _, winSteps := range []int{1, 2, 4, 8, 16} {
		for _, m := range modes {
			comb, err := m.comb()
			if err != nil {
				return nil, err
			}
			windows := 0
			var latency time.Duration
			d, err := bestOf(3, func() (time.Duration, error) {
				windows, latency = 0, 0
				start := time.Now()
				err := stream.New().
					From(src()).
					Window(stream.Tumbling(int64(winSteps))).
					Combine(comb).
					To(stream.CallbackSink(func(r stream.WindowResult) error {
						windows++
						latency += r.Latency
						return nil
					})).
					Run(context.Background())
				return time.Since(start), err
			})
			if err != nil {
				return nil, err
			}
			res.AddPoint(m.name, float64(winSteps), float64(windows)/seconds(d))
			if m.name == "reseed" {
				probes = append(probes, latencyProbe{winSteps, latency / time.Duration(windows)})
			}
		}
	}

	for _, x := range []float64{1, 16} {
		rs, rb := res.SeriesByName("reseed"), res.SeriesByName("rebuild")
		a, aok := rs.YAt(x)
		b, bok := rb.YAt(x)
		if aok && bok && b > 0 {
			res.Note("window of %.0f step(s): reseed sustains %.2fx the rebuild throughput", x, a/b)
		}
	}
	if len(probes) > 0 {
		first, last := probes[0], probes[len(probes)-1]
		res.Note("mean per-window latency (reseed): %v at %d step(s), %v at %d steps",
			first.mean.Round(time.Microsecond), first.winSteps,
			last.mean.Round(time.Microsecond), last.winSteps)
	}
	res.Note("%d steps x %d elements per step; tumbling histogram, 2 threads", totalSteps, elemsPerStep)
	return res, nil
}
