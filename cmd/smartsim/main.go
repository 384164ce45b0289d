// Command smartsim drives a complete in-situ pipeline from the command
// line: pick a simulation, an analytics application, and an execution mode,
// and watch the coupled run. It is the "downstream user" front-end to the
// library — everything it does goes through the public runtime API.
//
//	smartsim -sim heat3d -nx 32 -ny 32 -nz 32 -steps 5 -app histogram
//	smartsim -sim lulesh -edge 24 -app kmeans -mode space
//	smartsim -sim emulator -elems 100000 -app moments -mode offline
//	smartsim -sim heat3d -app movingavg -trace
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/insitu"
	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/sim"
)

type options struct {
	simName string
	nx, ny, nz,
	edge, elems int
	app         string
	mode        string
	steps       int
	threads     int
	window      int
	buckets     int
	k           int
	trace       bool
	metricsAddr string
	linger      time.Duration
	flight      int
}

func main() {
	var o options
	flag.StringVar(&o.simName, "sim", "heat3d", "simulation: heat3d, lulesh, emulator")
	flag.IntVar(&o.nx, "nx", 32, "heat3d x extent")
	flag.IntVar(&o.ny, "ny", 32, "heat3d y extent")
	flag.IntVar(&o.nz, "nz", 32, "heat3d z extent")
	flag.IntVar(&o.edge, "edge", 24, "lulesh cube edge")
	flag.IntVar(&o.elems, "elems", 100_000, "emulator elements per step")
	flag.StringVar(&o.app, "app", "histogram", "analytics: histogram, kmeans, moments, movingavg, topk")
	flag.StringVar(&o.mode, "mode", "time", "execution mode: time, space, offline")
	flag.IntVar(&o.steps, "steps", 5, "time-steps")
	flag.IntVar(&o.threads, "threads", 4, "analytics threads")
	flag.IntVar(&o.window, "window", 25, "moving average window")
	flag.IntVar(&o.buckets, "buckets", 16, "histogram buckets")
	flag.IntVar(&o.k, "k", 4, "clusters / extremes")
	flag.BoolVar(&o.trace, "trace", false, "print per-phase runtime timings")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live runtime metrics over HTTP on this address (e.g. :9090)")
	flag.DurationVar(&o.linger, "metrics-linger", 0, "keep the metrics endpoint up this long after the run finishes")
	flag.IntVar(&o.flight, "flight", 0, "flight-recorder capacity in events (0 = off); SIGQUIT dumps it to stderr")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "smartsim:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.flight > 0 {
		fr := obs.NewFlightRecorder(o.flight)
		obs.Default().SetFlightRecorder(fr)
		stopDump := obs.DumpOnSignal(fr, syscall.SIGQUIT, os.Stderr)
		defer stopDump()
	}
	if o.metricsAddr != "" {
		srv, err := obs.Serve(o.metricsAddr, obs.DefaultRegistry())
		if err != nil {
			return err
		}
		fmt.Printf("metrics: http://%s/metrics (Prometheus text) and /metrics.json\n", srv.Addr())
		defer func() {
			if o.linger > 0 {
				// Interruptible linger: ctrl-C (or SIGTERM) ends the wait
				// early instead of leaving an unkillable sleep behind.
				fmt.Printf("metrics endpoint stays up for %v (ctrl-C to stop)\n", o.linger)
				sig := make(chan os.Signal, 1)
				signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
				select {
				case <-time.After(o.linger):
				case s := <-sig:
					fmt.Printf("metrics linger interrupted by %v\n", s)
				}
				signal.Stop(sig)
			}
			srv.Close()
		}()
	}

	simulation, err := makeSim(o)
	if err != nil {
		return err
	}
	pipeline, err := makeApp(o, len(simulation.Data()))
	if err != nil {
		return err
	}
	fmt.Printf("running %s + %s in %s sharing mode: %d steps of %d elements on %d threads\n",
		o.simName, o.app, o.mode, o.steps, len(simulation.Data()), o.threads)

	start := time.Now()
	switch o.mode {
	case "time":
		_, err = insitu.TimeSharing(simulation, pipeline.analyze, insitu.TimeSharingConfig{Steps: o.steps})
	case "space":
		_, err = insitu.SpaceSharing(simulation, pipeline.feed, pipeline.consume, pipeline.closeFeed,
			insitu.SpaceSharingConfig{Steps: o.steps})
	case "offline":
		var res insitu.OfflineResult
		res, err = insitu.Offline(simulation, pipeline.analyze, o.steps, insitu.DiskModel{})
		if err == nil {
			fmt.Printf("offline pipeline: sim %v, write %v, read %v, analytics %v (%d bytes spooled)\n",
				res.Sim.Round(time.Microsecond), res.Write.Round(time.Microsecond),
				res.Read.Round(time.Microsecond), res.Analytics.Round(time.Microsecond), res.Bytes)
		}
	default:
		return fmt.Errorf("unknown mode %q (want time, space, offline)", o.mode)
	}
	if err != nil {
		return err
	}
	fmt.Printf("completed in %v\n\n", time.Since(start).Round(time.Microsecond))
	pipeline.report()
	return nil
}

func makeSim(o options) (sim.Simulation, error) {
	switch o.simName {
	case "heat3d":
		return sim.NewHeat3D(sim.Heat3DConfig{NX: o.nx, NY: o.ny, NZ: o.nz, Threads: o.threads, Seed: 1})
	case "lulesh":
		return sim.NewLulesh(sim.LuleshConfig{Edge: o.edge, Threads: o.threads, Seed: 1})
	case "emulator":
		return sim.NewEmulator(sim.EmulatorConfig{StepElems: o.elems, Mean: 10, StdDev: 4, Seed: 1})
	}
	return nil, fmt.Errorf("unknown simulation %q (want heat3d, lulesh, emulator)", o.simName)
}

// pipeline adapts one analytics choice to the three drivers.
type pipeline struct {
	analyze   insitu.AnalyzeFn
	feed      func([]float64) error
	consume   func() error
	closeFeed func()
	report    func()
}

// newScheduler builds a scheduler and, under -trace, prints every phase span
// it emits.
func newScheduler[In, Out any](app core.Analytics[In, Out], args core.SchedArgs, trace bool) *core.Scheduler[In, Out] {
	s := core.MustNewScheduler[In, Out](app, args)
	if trace {
		s.SubscribeSpans(func(sp obs.Span) {
			fmt.Printf("    [trace] %-14s %v\n", sp.Name, sp.Dur.Round(time.Microsecond))
		})
	}
	return s
}

func makeApp(o options, stepElems int) (*pipeline, error) {
	args := core.SchedArgs{NumThreads: o.threads, ChunkSize: 1, NumIters: 1}

	switch o.app {
	case "histogram":
		app := analytics.NewHistogram(-10, 130, o.buckets)
		s := newScheduler[float64, int64](app, args, o.trace)
		// Runs without a reset accumulate: after every step acc holds the
		// histogram of all steps so far.
		acc := make([]int64, o.buckets)
		return &pipeline{
			analyze:   func(data []float64) error { return s.Run(data, acc) },
			feed:      s.Feed,
			consume:   func() error { return s.RunShared(acc) },
			closeFeed: s.CloseFeed,
			report: func() {
				fmt.Println("accumulated histogram:")
				var peak int64
				for _, c := range acc {
					if c > peak {
						peak = c
					}
				}
				for b, c := range acc {
					bar := ""
					if peak > 0 {
						for i := int64(0); i < c*32/peak; i++ {
							bar += "#"
						}
					}
					fmt.Printf("  bucket %2d %9d %s\n", b, c, bar)
				}
			},
		}, nil

	case "kmeans":
		const dims = 4
		app := analytics.NewKMeans(o.k, dims)
		kmArgs := args
		kmArgs.ChunkSize = dims
		kmArgs.NumIters = 5
		init := make([]float64, o.k*dims)
		for c := 0; c < o.k; c++ {
			for d := 0; d < dims; d++ {
				init[c*dims+d] = float64(c) * 120 / float64(o.k)
			}
		}
		kmArgs.Extra = init
		s := newScheduler[float64, []float64](app, kmArgs, o.trace)
		step := func(data []float64) error {
			return s.Run(data[:len(data)/dims*dims], nil)
		}
		return &pipeline{
			analyze:   step,
			feed:      s.Feed,
			consume:   func() error { return s.RunShared(nil) },
			closeFeed: s.CloseFeed,
			report: func() {
				fmt.Println("final centroids (tracked across all time-steps):")
				for c, row := range app.Centroids(s.CombinationMap()) {
					fmt.Printf("  cluster %d: %.3f\n", c, row)
				}
			},
		}, nil

	case "moments":
		app := analytics.NewMoments(0, 0)
		s := newScheduler[float64, float64](app, args, o.trace)
		// Runs without a reset accumulate every step into key 0.
		return &pipeline{
			analyze:   func(data []float64) error { return s.Run(data, nil) },
			feed:      s.Feed,
			consume:   func() error { return s.RunShared(nil) },
			closeFeed: s.CloseFeed,
			report: func() {
				acc := s.CombinationMap()[0].(*analytics.MomentsObj)
				fmt.Printf("field statistics over all steps: n=%d mean=%.4f stddev=%.4f skew=%.4f\n",
					acc.N, acc.Mean, math.Sqrt(acc.Variance()), acc.Skewness())
			},
		}, nil

	case "movingavg":
		app := analytics.NewMovingAverage(o.window, stepElems, 0, true)
		s := newScheduler[float64, float64](app, args, o.trace)
		out := make([]float64, stepElems)
		step := func(data []float64) error {
			s.ResetCombinationMap()
			return s.Run(data, out)
		}
		return &pipeline{
			analyze: step,
			feed:    s.Feed,
			consume: func() error {
				s.ResetCombinationMap()
				return s.RunShared(out)
			},
			closeFeed: s.CloseFeed,
			report: func() {
				st := s.Stats()
				fmt.Printf("last step smoothed: out[0..4] = %.4f\n", out[:min(5, len(out))])
				fmt.Printf("early emission: %d windows emitted during reduction, peak live objects %d\n",
					st.EmittedEarly, st.MaxLiveRedObjs)
			},
		}, nil

	case "topk":
		app := analytics.NewTopK(o.k, 0)
		s := newScheduler[float64, float64](app, args, o.trace)
		step := func(data []float64) error { return s.Run(data, nil) }
		return &pipeline{
			analyze:   step,
			feed:      s.Feed,
			consume:   func() error { return s.RunShared(nil) },
			closeFeed: s.CloseFeed,
			report: func() {
				fmt.Printf("top %d values across all steps:\n", o.k)
				for i, e := range app.Extremes(s.CombinationMap()) {
					fmt.Printf("  #%-2d %.4f at position %d\n", i+1, e.Val, e.Pos)
				}
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown app %q (want histogram, kmeans, moments, movingavg, topk)", o.app)
}
