// Ablation benchmarks for the design choices DESIGN.md calls out: how the
// binomial combination tree scales with world size, and the block size of
// the runtime scheduler. These measure the real code paths (total
// CPU work, which on any machine bounds the wall time).
package smart_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/sim"
)

// runCombineWorld executes one distributed histogram run over `ranks`
// in-process ranks and returns only when every rank finished.
func runCombineWorld(b *testing.B, ranks int, data []float64) {
	b.Helper()
	comms := mpi.NewWorld(ranks)
	per := len(data) / ranks
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[r].Close()
			app := analytics.NewHistogram(-4, 4, 1200)
			s := core.MustNewScheduler[float64, int64](app, core.SchedArgs{
				NumThreads: 1, ChunkSize: 1, NumIters: 1, Comm: comms[r],
			})
			if err := s.Run(data[r*per:(r+1)*per], nil); err != nil {
				b.Errorf("rank %d: %v", r, err)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkAblationGlobalCombine runs the binomial combination tree across
// world sizes: the root's merge work grows as O(log P), not O(P).
func BenchmarkAblationGlobalCombine(b *testing.B) {
	em, err := sim.NewEmulator(sim.EmulatorConfig{StepElems: 64 * 1024, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	em.Step()
	data := em.Data()
	for _, ranks := range []int{4, 16} {
		b.Run(fmt.Sprintf("ranks=%d/tree", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCombineWorld(b, ranks, data)
			}
		})
	}
}

// BenchmarkAblationBlockSize sweeps the scheduler's block size: one block
// (0) against cache-sized and tiny blocks, histogram over one partition.
func BenchmarkAblationBlockSize(b *testing.B) {
	em, err := sim.NewEmulator(sim.EmulatorConfig{StepElems: 512 * 1024, Seed: 72})
	if err != nil {
		b.Fatal(err)
	}
	em.Step()
	data := em.Data()
	for _, blockSize := range []int{0, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("block=%d", blockSize), func(b *testing.B) {
			app := analytics.NewHistogram(-4, 4, 100)
			s := core.MustNewScheduler[float64, int64](app, core.SchedArgs{
				NumThreads: 4, ChunkSize: 1, NumIters: 1, BlockSize: blockSize, Sequential: true,
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ResetCombinationMap()
				if err := s.Run(data, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEarlyEmission isolates the trigger mechanism's cost and
// benefit: the same moving-average run with and without early emission.
func BenchmarkAblationEarlyEmission(b *testing.B) {
	em, err := sim.NewEmulator(sim.EmulatorConfig{StepElems: 64 * 1024, Seed: 73})
	if err != nil {
		b.Fatal(err)
	}
	em.Step()
	data := em.Data()
	for _, trigger := range []bool{true, false} {
		name := "trigger=on"
		if !trigger {
			name = "trigger=off"
		}
		b.Run(name, func(b *testing.B) {
			out := make([]float64, len(data))
			for i := 0; i < b.N; i++ {
				app := analytics.NewMovingAverage(25, len(data), 0, trigger)
				s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
					NumThreads: 2, ChunkSize: 1, NumIters: 1,
				})
				if err := s.Run(data, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulerHotPath measures the per-element overhead of the
// framework against a raw loop — the cost Section 5.3 bounds.
func BenchmarkSchedulerHotPath(b *testing.B) {
	em, err := sim.NewEmulator(sim.EmulatorConfig{StepElems: 256 * 1024, Seed: 74})
	if err != nil {
		b.Fatal(err)
	}
	em.Step()
	data := em.Data()
	b.Run("smart-histogram", func(b *testing.B) {
		app := analytics.NewHistogram(-4, 4, 100)
		s := core.MustNewScheduler[float64, int64](app, core.SchedArgs{
			NumThreads: 1, ChunkSize: 1, NumIters: 1,
		})
		b.SetBytes(int64(len(data) * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ResetCombinationMap()
			if err := s.Run(data, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-loop", func(b *testing.B) {
		counts := make([]int64, 100)
		b.SetBytes(int64(len(data) * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range counts {
				counts[j] = 0
			}
			for _, v := range data {
				k := int((v + 4) / 0.08)
				if k < 0 {
					k = 0
				}
				if k > 99 {
					k = 99
				}
				counts[k]++
			}
		}
	})
}
