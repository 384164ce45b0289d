package analytics_test

import (
	"fmt"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
)

// ExampleKMeans shows iterative clustering: initial centroids travel in as
// extra data, converge over NumIters, and come back out of the combination
// map.
func ExampleKMeans() {
	// Two 1-D clusters around 0 and 10 (Dims=1).
	data := []float64{0, 0.5, -0.5, 10, 10.5, 9.5}
	app := analytics.NewKMeans(2, 1)
	sched := core.MustNewScheduler[float64, []float64](app, core.SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 5,
		Extra: []float64{1, 9}, // initial centroids
	})
	if err := sched.Run(data, nil); err != nil {
		panic(err)
	}
	for i, c := range app.Centroids(sched.CombinationMap()) {
		fmt.Printf("cluster %d: %.1f\n", i, c[0])
	}
	// Output:
	// cluster 0: 0.0
	// cluster 1: 10.0
}

// ExampleMovingMedian shows a holistic window application with early
// emission: the reduction object keeps all window values, and completed
// windows convert during reduction.
func ExampleMovingMedian() {
	data := []float64{5, 1, 4, 2, 3}
	app := analytics.NewMovingMedian(3, len(data), 0, true)
	sched := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: 1, ChunkSize: 1,
	})
	out := make([]float64, len(data))
	if err := sched.Run(data, out); err != nil {
		panic(err)
	}
	fmt.Println(out)
	// Output: [3 4 2 3 2.5]
}

// ExampleTopK shows hotspot detection with a bounded-heap reduction object.
func ExampleTopK() {
	data := []float64{3, 9, 1, 7, 9.5, 2}
	app := analytics.NewTopK(2, 0)
	sched := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: 2, ChunkSize: 1,
	})
	if err := sched.Run(data, nil); err != nil {
		panic(err)
	}
	for _, e := range app.Extremes(sched.CombinationMap()) {
		fmt.Printf("%.1f at %d\n", e.Val, e.Pos)
	}
	// Output:
	// 9.5 at 4
	// 9.0 at 1
}

// ExampleMoments shows streaming statistics with the numerically stable
// pairwise merge.
func ExampleMoments() {
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	app := analytics.NewMoments(0, 0)
	sched := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: 4, ChunkSize: 1,
	})
	if err := sched.Run(data, nil); err != nil {
		panic(err)
	}
	obj := sched.CombinationMap()[0].(*analytics.MomentsObj)
	fmt.Printf("mean=%.1f variance=%.1f\n", obj.Mean, obj.Variance())
	// Output: mean=5.0 variance=4.0
}
