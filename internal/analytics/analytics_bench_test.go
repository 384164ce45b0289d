package analytics

import (
	"math"
	"testing"

	"github.com/scipioneer/smart/internal/core"
)

// benchInput is a deterministic mixed-frequency signal reused across the
// per-application throughput benchmarks.
func benchInput(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 50 + 40*math.Sin(float64(i)/17) + float64(i%13)
	}
	return out
}

const benchN = 1 << 16

func BenchmarkHistogramThroughput(b *testing.B) {
	in := benchInput(benchN)
	app := NewHistogram(0, 120, 1200)
	s := core.MustNewScheduler[float64, int64](app, core.SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	b.SetBytes(8 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCombinationMap()
		if err := s.Run(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridAggThroughput(b *testing.B) {
	in := benchInput(benchN)
	app := NewGridAgg(1000, 0)
	s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	b.SetBytes(8 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCombinationMap()
		if err := s.Run(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansIteration(b *testing.B) {
	const k, dims = 8, 4
	in := benchInput(benchN)
	init := make([]float64, k*dims)
	for c := 0; c < k; c++ {
		for d := 0; d < dims; d++ {
			init[c*dims+d] = float64(c * 15)
		}
	}
	b.SetBytes(8 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := NewKMeans(k, dims)
		s := core.MustNewScheduler[float64, []float64](app, core.SchedArgs{
			NumThreads: 1, ChunkSize: dims, NumIters: 1, Extra: init,
		})
		if err := s.Run(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogRegIteration(b *testing.B) {
	const dims = 15
	in := benchInput(benchN / (dims + 1) * (dims + 1))
	b.SetBytes(int64(8 * len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := NewLogReg(dims, 0.1)
		s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
			NumThreads: 1, ChunkSize: dims + 1, NumIters: 1,
		})
		if err := s.Run(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMovingAverageWindow25(b *testing.B) {
	in := benchInput(benchN)
	out := make([]float64, len(in))
	b.SetBytes(8 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := NewMovingAverage(25, len(in), 0, true)
		s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
			NumThreads: 1, ChunkSize: 1, NumIters: 1,
		})
		if err := s.Run(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMovingMedianWindow25(b *testing.B) {
	in := benchInput(benchN / 4)
	out := make([]float64, len(in))
	b.SetBytes(int64(8 * len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := NewMovingMedian(25, len(in), 0, true)
		s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
			NumThreads: 1, ChunkSize: 1, NumIters: 1,
		})
		if err := s.Run(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSavitzkyGolayWindow25(b *testing.B) {
	in := benchInput(benchN / 2)
	out := make([]float64, len(in))
	b.SetBytes(int64(8 * len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := NewSavitzkyGolay(25, 3, len(in), 0, true)
		s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
			NumThreads: 1, ChunkSize: 1, NumIters: 1,
		})
		if err := s.Run(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMomentsThroughput(b *testing.B) {
	in := benchInput(benchN)
	app := NewMoments(0, 0)
	s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	b.SetBytes(8 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ResetCombinationMap()
		if err := s.Run(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKThroughput(b *testing.B) {
	in := benchInput(benchN)
	b.SetBytes(8 * benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := NewTopK(32, 0)
		s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
		if err := s.Run(in, nil); err != nil {
			b.Fatal(err)
		}
	}
}
