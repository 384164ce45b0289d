package core_test

import (
	"fmt"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
)

// ExampleScheduler_Run shows the minimal in-situ job: an equi-width
// histogram over one time-step's output, reduced in place with no
// intermediate key-value pairs.
func ExampleScheduler_Run() {
	data := []float64{0.5, 1.5, 1.7, 2.2, 2.4, 2.9, 0.1}
	app := analytics.NewHistogram(0, 3, 3)
	sched := core.MustNewScheduler[float64, int64](app, core.SchedArgs{
		NumThreads: 2, ChunkSize: 1,
	})
	out := make([]int64, 3)
	if err := sched.Run(data, out); err != nil {
		panic(err)
	}
	fmt.Println(out)
	// Output: [2 2 3]
}

// ExampleScheduler_Run_window shows a window application: its gen_keys maps
// every element to all the windows covering it, and the early-emission
// trigger finalizes each window during reduction.
func ExampleScheduler_Run_window() {
	data := []float64{1, 2, 3, 4, 5}
	app := analytics.NewMovingAverage(3, len(data), 0, true)
	sched := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: 1, ChunkSize: 1,
	})
	out := make([]float64, len(data))
	if err := sched.Run(data, out); err != nil {
		panic(err)
	}
	fmt.Println(out)
	// Output: [1.5 2 3 4 4.5]
}

// ExampleScheduler_Feed shows space sharing: the simulation task feeds
// time-steps into the circular buffer while the analytics task drains them.
func ExampleScheduler_Feed() {
	app := analytics.NewHistogram(0, 10, 2)
	sched := core.MustNewScheduler[float64, int64](app, core.SchedArgs{
		NumThreads: 1, ChunkSize: 1, BufferCells: 2,
	})
	go func() {
		sched.Feed([]float64{1, 2, 8})
		sched.Feed([]float64{3, 9, 9})
		sched.CloseFeed()
	}()
	total := make([]int64, 2)
	for {
		sched.ResetCombinationMap()
		out := make([]int64, 2)
		if err := sched.RunShared(out); err != nil {
			break
		}
		total[0] += out[0]
		total[1] += out[1]
	}
	fmt.Println(total)
	// Output: [3 3]
}

// ExampleScheduler_MergeCombinationMap shows the accumulator pattern for
// aggregating across partitions: fresh maps per partition, one merge target,
// one final combine.
func ExampleScheduler_MergeCombinationMap() {
	app := analytics.NewHistogram(0, 10, 2)
	step := core.MustNewScheduler[float64, int64](app, core.SchedArgs{NumThreads: 1, ChunkSize: 1})
	acc := core.MustNewScheduler[float64, int64](app, core.SchedArgs{NumThreads: 1, ChunkSize: 1})
	for _, part := range [][]float64{{1, 2, 8}, {3, 9, 9}} {
		step.ResetCombinationMap()
		if err := step.Run(part, nil); err != nil {
			panic(err)
		}
		acc.MergeCombinationMap(step.CombinationMap())
	}
	out := make([]int64, 2)
	if err := acc.GlobalCombine(out); err != nil {
		panic(err)
	}
	fmt.Println(out)
	// Output: [3 3]
}
