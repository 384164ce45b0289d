package harness

import (
	"fmt"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/insitu"
	"github.com/scipioneer/smart/internal/perfmodel"
	"github.com/scipioneer/smart/internal/sim"
)

// Figure 10's modeled many-core node (Xeon Phi SE10P in the paper): 60
// usable cores at low clock, with neither the simulation nor the
// memory-bound analytics able to scale much past ~32 of them — the premise
// that motivates space sharing (Sections 3.2 and 5.6).
var (
	fig10SimAmdahl = perfmodel.Amdahl{SerialFraction: 0.005, SaturationCores: 32}
	fig10AnaAmdahl = perfmodel.Amdahl{SerialFraction: 0.002, SaturationCores: 30}
)

const (
	fig10Nodes = 8
	fig10Cores = 60
	// fig10Interference inflates concurrent co-located tasks' compute: the
	// two space-sharing tasks contend for shared cache and memory
	// bandwidth.
	fig10Interference = 1.02
)

// fig10App is one Figure 10 workload.
type fig10App struct {
	figure string
	name   string
	iters  int
	run    func(data []float64) (appMeasure, error)
}

// Fig10 reproduces Figures 10a–10c: time sharing versus space sharing
// core-split schemes (50_10 … 10_50) plus the simulation-only baseline, for
// histogram, k-means, and moving median on Lulesh output over 8 many-core
// nodes. Each task's serial work is measured once; the model scales it onto
// core subsets with saturation, overlaps the two tasks under space sharing,
// charges the serialized-MPI communication twice (it cannot overlap the
// other task's communication), and applies a small co-run interference
// factor. The paper's qualitative outcome — histogram prefers time sharing,
// k-means gains modestly, the compute-heavy moving median gains most with a
// balanced split — follows from those mechanisms.
func Fig10(scale Scale) ([]*Result, error) {
	edge := scale.pick(16, 80)
	sweeps := scale.pick(8, 150)

	lul, err := sim.NewLulesh(sim.LuleshConfig{Edge: edge, SweepsPerStep: sweeps, Seed: 41})
	if err != nil {
		return nil, err
	}
	simSeq, err := bestOf(2, func() (time.Duration, error) {
		start := time.Now()
		err := lul.Step()
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	data := lul.Data()
	lo, hi := dataRange(data)
	comm := perfmodel.DefaultComm

	apps := []fig10App{
		{
			figure: "Fig 10a", name: "histogram (1200 buckets)", iters: 1,
			run: func(data []float64) (appMeasure, error) {
				app := analytics.NewHistogram(lo, hi, 1200)
				s := core.MustNewScheduler[float64, int64](app, core.SchedArgs{
					NumThreads: 1, ChunkSize: 1, NumIters: 1, Sequential: true,
				})
				if err := s.Run(data, nil); err != nil {
					return appMeasure{}, err
				}
				return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
			},
		},
		{
			figure: "Fig 10b", name: "k-means (k=8, 10 iters, 4 dims)", iters: 10,
			run: func(data []float64) (appMeasure, error) {
				app := analytics.NewKMeans(8, 4)
				s := core.MustNewScheduler[float64, []float64](app, core.SchedArgs{
					NumThreads: 1, ChunkSize: 4, NumIters: 10, Sequential: true,
					Extra: kmeansInit(8, 4, lo, hi),
				})
				if err := s.Run(data[:len(data)/4*4], nil); err != nil {
					return appMeasure{}, err
				}
				return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
			},
		},
		{
			figure: "Fig 10c", name: "moving median (window 25)", iters: 1,
			run: func(data []float64) (appMeasure, error) {
				app := analytics.NewMovingMedian(25, len(data), 0, true)
				s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
					NumThreads: 1, ChunkSize: 1, NumIters: 1, Sequential: true,
				})
				if err := s.Run(data, make([]float64, len(data))); err != nil {
					return appMeasure{}, err
				}
				return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
			},
		},
	}

	simTime := func(cores int) time.Duration { return fig10SimAmdahl.Time(simSeq, cores) }
	simOnly := simTime(fig10Cores)

	var results []*Result
	for _, app := range apps {
		res := &Result{
			Figure: app.figure,
			Title:  "Time sharing vs space sharing: " + app.name,
			XLabel: "scheme (0=sim-only, 1=time sharing, 2..6 = 50_10..10_50)",
			YLabel: "seconds per time-step (modeled node time)",
		}
		res.AddPoint("sim-only", 0, seconds(simOnly))

		// One sequential measurement of the whole analytics step.
		var anaSeq, serial time.Duration
		var bytes int64
		if _, err := bestOf(2, func() (time.Duration, error) {
			m, err := app.run(data)
			if err != nil {
				return 0, err
			}
			compute, ser, b, err := m.modeled(app.iters)
			if err != nil {
				return 0, err
			}
			anaSeq, serial, bytes = compute, ser, b
			return compute + ser, nil
		}); err != nil {
			return nil, err
		}
		anaTime := func(cores int) time.Duration {
			return fig10AnaAmdahl.Time(anaSeq, cores) + serial
		}
		anaComm := time.Duration(app.iters) * comm.Collective(fig10Nodes, bytes)

		// Time sharing: the tasks alternate, each on all cores.
		ts := simTime(fig10Cores) + anaTime(fig10Cores) + anaComm
		res.AddPoint("time sharing", 1, seconds(ts))

		// Space sharing n_m: compute overlaps (with interference), but the
		// serialized MPI endpoint keeps communication from overlapping the
		// other task, doubling its effective cost.
		best := ts
		bestName := "time sharing"
		schemes := []struct{ simCores, anaCores int }{
			{50, 10}, {40, 20}, {30, 30}, {20, 40}, {10, 50},
		}
		for i, sch := range schemes {
			overlap := max(simTime(sch.simCores), anaTime(sch.anaCores))
			ss := time.Duration(float64(overlap)*fig10Interference) + 2*anaComm
			name := fmt.Sprintf("%d_%d", sch.simCores, sch.anaCores)
			res.AddPoint(name, float64(2+i), seconds(ss))
			if ss < best {
				best = ss
				bestName = name
			}
		}
		res.Note("best scheme: %s; improvement over time sharing: %+.1f%%", bestName,
			100*(ts.Seconds()-best.Seconds())/ts.Seconds())
		res.Note("overhead of best scheme over sim-only: %.1f%%",
			100*(best.Seconds()-simOnly.Seconds())/simOnly.Seconds())
		results = append(results, res)
	}

	if err := fig10Backpressure(scale, results[len(results)-1]); err != nil {
		return nil, err
	}
	return results, nil
}

// fig10Backpressure drives one small but real space-sharing run through the
// scheduler's circular buffer. The schemes above are modeled and never touch
// the buffer; this probe makes the Section 3.2 backpressure mechanism
// observable — buffer occupancy, producer blocked-time, and per-phase spans
// all land in the runtime metrics (smart_ringbuf_*, smart_span_*) that
// `smartbench -metrics` snapshots — and appends the measured numbers to the
// figure as a note.
func fig10Backpressure(scale Scale, res *Result) error {
	elems := scale.pick(20_000, 200_000)
	steps := scale.pick(4, 8)
	const cells = 2

	em, err := sim.NewEmulator(sim.EmulatorConfig{StepElems: elems, Mean: 10, StdDev: 4, Seed: 42})
	if err != nil {
		return err
	}
	// A cheap producer (emulator) against the compute-heavy moving median
	// forces the producer to wait on the full buffer.
	app := analytics.NewMovingMedian(25, elems, 0, true)
	s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: 2, ChunkSize: 1, NumIters: 1, BufferCells: cells,
	})
	out := make([]float64, elems)
	consume := func() error {
		s.ResetCombinationMap()
		return s.RunShared(out)
	}
	if _, err := insitu.SpaceSharing(em, s.Feed, consume, s.CloseFeed,
		insitu.SpaceSharingConfig{Steps: steps}); err != nil {
		return err
	}
	_, _, producerWaits := s.BufferStats()
	producerBlocked, consumerBlocked := s.BufferBlockedTime()
	res.Note("measured backpressure probe: %d steps through a %d-cell buffer; producer blocked %v across %d waits, consumer blocked %v",
		steps, cells, producerBlocked.Round(time.Microsecond), producerWaits,
		consumerBlocked.Round(time.Microsecond))
	return nil
}
