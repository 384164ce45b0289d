// A MapReduce pipeline of Smart jobs (paper Section 3.1): histogram
// construction needs the value range up front, so a first Smart job scans
// the partition for its min and max, and a second job builds the histogram
// with the learned range. The first job also demonstrates turning global
// combination off: with SetGlobalCombination(false) each rank would keep a
// local result to feed the next job in the parallel region; here we keep it
// on so the learned range is global.
//
// Run with: go run ./examples/pipeline-minmax-histogram
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/sim"
)

// minMaxApp is the first pipeline stage: a two-field reduction object
// tracking the partition's value range under a single key.
type minMaxApp struct{}

type rangeObj struct{ Min, Max float64 }

func (r *rangeObj) Clone() core.RedObj { cp := *r; return &cp }
func (r *rangeObj) MarshalBinary() ([]byte, error) {
	return mpi.EncodeFloat64s([]float64{r.Min, r.Max}), nil
}
func (r *rangeObj) UnmarshalBinary(b []byte) error {
	xs, err := mpi.DecodeFloat64s(b)
	if err != nil || len(xs) != 2 {
		return fmt.Errorf("rangeObj: bad payload")
	}
	r.Min, r.Max = xs[0], xs[1]
	return nil
}

func (minMaxApp) NewRedObj() core.RedObj {
	return &rangeObj{Min: math.Inf(1), Max: math.Inf(-1)}
}
func (minMaxApp) GenKey(chunk.Chunk, []float64) int { return 0 }
func (minMaxApp) Accumulate(_ int, c chunk.Chunk, data []float64, obj core.RedObj) {
	o := obj.(*rangeObj)
	v := data[c.Start]
	o.Min = math.Min(o.Min, v)
	o.Max = math.Max(o.Max, v)
}
func (minMaxApp) Merge(src, dst core.RedObj) {
	s, d := src.(*rangeObj), dst.(*rangeObj)
	d.Min = math.Min(d.Min, s.Min)
	d.Max = math.Max(d.Max, s.Max)
}

const (
	ranks   = 3
	buckets = 16
)

func main() {
	comms := mpi.NewWorld(ranks)
	var wg sync.WaitGroup
	hists := make([][]int64, ranks)
	ranges := make([]rangeObj, ranks)
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[rank].Close()

			// Each rank's "simulation output": a deterministic stream.
			em, err := sim.NewEmulator(sim.EmulatorConfig{
				StepElems: 50_000, Mean: 10, StdDev: 3, Seed: uint64(rank) + 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := em.Step(); err != nil {
				log.Fatal(err)
			}
			data := em.Data()

			// Stage 1: learn the global value range.
			rangeSched := core.MustNewScheduler[float64, float64](minMaxApp{}, core.SchedArgs{
				NumThreads: 2, ChunkSize: 1, NumIters: 1, Comm: comms[rank],
			})
			if err := rangeSched.Run(data, nil); err != nil {
				log.Fatalf("rank %d stage 1: %v", rank, err)
			}
			r := rangeSched.CombinationMap()[0].(*rangeObj)
			ranges[rank] = *r

			// Stage 2: histogram with the learned global range.
			app := analytics.NewHistogram(r.Min, r.Max+1e-9, buckets)
			histSched := core.MustNewScheduler[float64, int64](app, core.SchedArgs{
				NumThreads: 2, ChunkSize: 1, NumIters: 1, Comm: comms[rank],
			})
			out := make([]int64, buckets)
			if err := histSched.Run(data, out); err != nil {
				log.Fatalf("rank %d stage 2: %v", rank, err)
			}
			hists[rank] = out
		}()
	}
	wg.Wait()

	fmt.Printf("stage 1 learned global range: [%.3f, %.3f] (identical on all ranks: %v)\n",
		ranges[0].Min, ranges[0].Max, ranges[0] == ranges[1] && ranges[1] == ranges[2])
	fmt.Printf("stage 2 global histogram over %d ranks x 50k elements:\n", ranks)
	var total int64
	width := (ranges[0].Max - ranges[0].Min) / buckets
	for b, c := range hists[0] {
		total += c
		fmt.Printf("  [%7.3f,%7.3f) %6d\n", ranges[0].Min+float64(b)*width, ranges[0].Min+float64(b+1)*width, c)
	}
	fmt.Printf("  total: %d\n", total)
}
