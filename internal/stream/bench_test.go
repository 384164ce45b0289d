package stream

import (
	"context"
	"testing"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
)

// Benchmark shape: every op is one fired tumbling window of
// benchStepsPerWin steps x benchElemsPerStep elements, driven end to end
// through the pipeline (ingest, watermark advance, fire, combine, sink).
// Reseed keeps one warm SchedCombiner across windows (the production path:
// the combination map is recycled in place); Rebuild constructs a fresh
// scheduler per window — the allocation delta between the two is the price
// the in-place reset exists to avoid. Ingest swaps the scheduler for a
// trivial counting combiner and measures the operator layer's own floor.
const (
	benchStepsPerWin  = 4
	benchElemsPerStep = 1024
)

var benchArgs = core.SchedArgs{NumThreads: 2, ChunkSize: 1, CombineShards: 4}

func benchSource(nWindows int) Source {
	data := make([]float64, benchElemsPerStep)
	for i := range data {
		data[i] = float64((i*37)%200)/10 - 5
	}
	return SourceFunc(func(ctx context.Context, push func(Event) error) error {
		for t := 0; t < nWindows*benchStepsPerWin; t++ {
			if err := push(Event{Time: int64(t), Data: data}); err != nil {
				return err
			}
		}
		return nil
	})
}

func benchWindows(b *testing.B, comb Combiner) {
	b.ReportAllocs()
	fired := 0
	var latency time.Duration
	err := New().
		From(benchSource(b.N)).
		Window(Tumbling(benchStepsPerWin)).
		Combine(comb).
		To(CallbackSink(func(r WindowResult) error {
			fired++
			latency += r.Latency
			return nil
		})).
		Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if fired != b.N {
		b.Fatalf("fired %d windows, want %d", fired, b.N)
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "windows/sec")
	b.ReportMetric(float64(latency.Nanoseconds())/float64(fired), "latencyns/win")
}

func BenchmarkStreamWindowReseed(b *testing.B) {
	comb, err := NewSchedCombiner[int64](SchedOptions[int64]{
		Build: func(int) (core.Analytics[float64, int64], error) {
			return analytics.NewHistogram(-5, 5, 32), nil
		},
		Args: benchArgs,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchWindows(b, comb)
}

func BenchmarkStreamWindowRebuild(b *testing.B) {
	benchWindows(b, CombinerFunc(func(ctx context.Context, w Window, elems []float64) (any, error) {
		s, err := core.NewScheduler[float64, int64](analytics.NewHistogram(-5, 5, 32), benchArgs)
		if err != nil {
			return nil, err
		}
		if err := s.RunContext(ctx, elems, nil); err != nil {
			return nil, err
		}
		return nil, nil
	}))
}

func BenchmarkStreamWindowIngest(b *testing.B) {
	benchWindows(b, CombinerFunc(func(_ context.Context, _ Window, elems []float64) (any, error) {
		return len(elems), nil
	}))
}
