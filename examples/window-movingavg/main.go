// Window-based analytics with early emission (paper Section 4). The moving
// average maps every element to all the windows it covers (gen_keys); the
// trigger fires as soon as a window is complete, converting it to output and
// erasing its reduction object. The run is repeated with the trigger
// disabled to show the footprint difference the optimization buys.
//
// Run with: go run ./examples/window-movingavg
package main

import (
	"fmt"
	"log"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/sim"
)

func main() {
	heat, err := sim.NewHeat3D(sim.Heat3DConfig{NX: 32, NY: 32, NZ: 32, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	if err := heat.Step(); err != nil {
		log.Fatal(err)
	}
	data := heat.Data()
	const win = 25

	run := func(trigger bool) ([]float64, *core.Stats) {
		app := analytics.NewMovingAverage(win, len(data), 0, trigger)
		sched := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
			NumThreads: 2, ChunkSize: 1, NumIters: 1,
		})
		out := make([]float64, len(data))
		if err := sched.Run(data, out); err != nil {
			log.Fatal(err)
		}
		return out, sched.Stats()
	}

	smoothed, withTrigger := run(true)
	_, noTrigger := run(false)

	fmt.Printf("moving average (window %d) over one Heat3D time-step of %d elements\n\n", win, len(data))
	fmt.Printf("%-28s %15s %15s\n", "", "with trigger", "no trigger")
	fmt.Printf("%-28s %15d %15d\n", "peak live reduction objects",
		withTrigger.MaxLiveRedObjs, noTrigger.MaxLiveRedObjs)
	fmt.Printf("%-28s %15d %15d\n", "objects emitted early",
		withTrigger.EmittedEarly, noTrigger.EmittedEarly)
	fmt.Printf("\nthe trigger bounds the live state near the window size instead of the input size\n")
	fmt.Printf("(%dx fewer live objects)\n\n", noTrigger.MaxLiveRedObjs/max(withTrigger.MaxLiveRedObjs, 1))

	fmt.Println("first smoothed values:")
	for i := 0; i < 6; i++ {
		fmt.Printf("  out[%d] = %.4f (raw %.4f)\n", i, smoothed[i], data[i])
	}
}
