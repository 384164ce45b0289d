package harness

import (
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
)

// appMeasure is the outcome of one sequential-replay analytics run.
type appMeasure struct {
	stats  *core.Stats
	encode func() ([]byte, error)
}

// modeled returns the replay model's node-local analytics time: slowest
// split plus the serial tail (local combination plus one encode/decode
// serialization per iteration), and the combination payload size.
func (m appMeasure) modeled(iters int) (compute time.Duration, serial time.Duration, commBytes int64, err error) {
	var encoded []byte
	serStart := time.Now()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if encoded, err = m.encode(); err != nil {
			return 0, 0, 0, err
		}
	}
	serialize := time.Since(serStart) / rounds
	compute = maxDuration(m.stats.SplitTimes)
	serial = m.stats.LocalCombineTime + time.Duration(iters)*2*serialize
	return compute, serial, int64(len(encoded)), nil
}

// appRunner is one of the nine evaluation applications, parameterized over
// the node-local data it will process.
type appRunner struct {
	name string
	// window marks the four window-based applications (Section 5.4 groups
	// them separately when reporting parallel efficiency).
	window bool
	// iters is the iteration count (for serialization charging).
	iters int
	// run executes the application over data with the given thread count in
	// sequential replay mode.
	run func(data []float64, threads int) (appMeasure, error)
}

// nineApps builds the paper's nine applications with the Section 5.4
// parameters, sized for node-local data of n elements with values in
// [lo, hi).
func nineApps(n int, lo, hi float64) []appRunner {
	seqArgs := func(threads, chunkSize, iters int) core.SchedArgs {
		return core.SchedArgs{NumThreads: threads, ChunkSize: chunkSize, NumIters: iters, Sequential: true}
	}
	apps := []appRunner{
		{
			name: "grid aggregation", iters: 1,
			run: func(data []float64, threads int) (appMeasure, error) {
				app := analytics.NewGridAgg(1000, 0)
				s := core.MustNewScheduler[float64, float64](app, seqArgs(threads, 1, 1))
				if err := s.Run(data, nil); err != nil {
					return appMeasure{}, err
				}
				return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
			},
		},
		{
			name: "histogram", iters: 1,
			run: func(data []float64, threads int) (appMeasure, error) {
				app := analytics.NewHistogram(lo, hi, 1200)
				s := core.MustNewScheduler[float64, int64](app, seqArgs(threads, 1, 1))
				if err := s.Run(data, nil); err != nil {
					return appMeasure{}, err
				}
				return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
			},
		},
		{
			name: "mutual information", iters: 1,
			run: func(data []float64, threads int) (appMeasure, error) {
				app := analytics.NewMutualInfo(lo, hi, 100, lo, hi, 100)
				s := core.MustNewScheduler[float64, int64](app, seqArgs(threads, 2, 1))
				if err := s.Run(data[:len(data)/2*2], nil); err != nil {
					return appMeasure{}, err
				}
				return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
			},
		},
		{
			name: "logistic regression", iters: 3,
			run: func(data []float64, threads int) (appMeasure, error) {
				const dims = 15
				rec := dims + 1
				labeled := labelize(data, rec, lo, hi)
				app := analytics.NewLogReg(dims, 0.1)
				s := core.MustNewScheduler[float64, float64](app, seqArgs(threads, rec, 3))
				if err := s.Run(labeled, nil); err != nil {
					return appMeasure{}, err
				}
				return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
			},
		},
		{
			name: "k-means", iters: 10,
			run: func(data []float64, threads int) (appMeasure, error) {
				const k, dims = 8, 4
				app := analytics.NewKMeans(k, dims)
				args := seqArgs(threads, dims, 10)
				args.Extra = kmeansInit(k, dims, lo, hi)
				s := core.MustNewScheduler[float64, []float64](app, args)
				if err := s.Run(data[:len(data)/dims*dims], nil); err != nil {
					return appMeasure{}, err
				}
				return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
			},
		},
	}
	const win = 25
	windowApps := []struct {
		name string
		mk   func(data []float64, threads int) (appMeasure, error)
	}{
		{"moving average", func(data []float64, threads int) (appMeasure, error) {
			app := analytics.NewMovingAverage(win, len(data), 0, true)
			s := core.MustNewScheduler[float64, float64](app, seqArgs(threads, 1, 1))
			if err := s.Run(data, make([]float64, len(data))); err != nil {
				return appMeasure{}, err
			}
			return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
		}},
		{"moving median", func(data []float64, threads int) (appMeasure, error) {
			app := analytics.NewMovingMedian(win, len(data), 0, true)
			s := core.MustNewScheduler[float64, float64](app, seqArgs(threads, 1, 1))
			if err := s.Run(data, make([]float64, len(data))); err != nil {
				return appMeasure{}, err
			}
			return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
		}},
		{"kernel density estimation", func(data []float64, threads int) (appMeasure, error) {
			app := analytics.NewKernelDensity(win, len(data), 0, true, 0)
			s := core.MustNewScheduler[float64, float64](app, seqArgs(threads, 1, 1))
			if err := s.Run(data, make([]float64, len(data))); err != nil {
				return appMeasure{}, err
			}
			return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
		}},
		{"Savitzky-Golay filter", func(data []float64, threads int) (appMeasure, error) {
			app := analytics.NewSavitzkyGolay(win, 2, len(data), 0, true)
			s := core.MustNewScheduler[float64, float64](app, seqArgs(threads, 1, 1))
			if err := s.Run(data, make([]float64, len(data))); err != nil {
				return appMeasure{}, err
			}
			return appMeasure{s.Stats(), s.EncodeCombinationMap}, nil
		}},
	}
	for _, w := range windowApps {
		apps = append(apps, appRunner{name: w.name, window: true, iters: 1, run: w.mk})
	}
	return apps
}

// labelize reinterprets raw simulation output as supervised records: every
// rec-th element (the label slot) is squashed into [0, 1] — a soft label —
// so logistic regression runs on simulation data as in the paper's
// evaluation, where analytics consume whatever field the simulation emits.
func labelize(data []float64, rec int, lo, hi float64) []float64 {
	out := append([]float64(nil), data...)
	for i := rec - 1; i < len(out); i += rec {
		v := (out[i] - lo) / (hi - lo)
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}
