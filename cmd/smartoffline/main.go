// Command smartoffline runs Smart analytics over a spooled dataset — the
// offline (store-first-analyze-after) side of the paper's Section 1.1
// question "can the offline and in-situ analytics codes be (almost)
// identical?". The applications used here are byte-for-byte the same
// implementations the in-situ drivers run; only the data source differs.
//
// Generate a test dataset, then analyze it:
//
//	smartoffline -gen data.bin -elems 1000000 -mean 10 -stddev 3
//	smartoffline -in data.bin -app histogram -buckets 20
//	smartoffline -in data.bin -app moments
//	smartoffline -in data.bin -app topk -k 10
//	smartoffline -in data.bin -app movingavg -window 25
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/sim"
)

func main() {
	var (
		gen     = flag.String("gen", "", "generate a dataset at this path and exit")
		elems   = flag.Int("elems", 1_000_000, "elements to generate")
		mean    = flag.Float64("mean", 0, "generated distribution mean")
		stddev  = flag.Float64("stddev", 1, "generated distribution stddev")
		seed    = flag.Uint64("seed", 42, "generator seed")
		in      = flag.String("in", "", "input dataset (little-endian float64)")
		app     = flag.String("app", "histogram", "analytics: histogram, moments, topk, movingavg")
		buckets = flag.Int("buckets", 20, "histogram buckets")
		k       = flag.Int("k", 10, "top-k size")
		window  = flag.Int("window", 25, "moving average window (odd)")
		threads = flag.Int("threads", 4, "analytics threads")
	)
	flag.Parse()

	if *gen != "" {
		if err := generate(*gen, *elems, *mean, *stddev, *seed); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d float64 elements to %s\n", *elems, *gen)
		return
	}
	if *in == "" {
		fatal(fmt.Errorf("need -in <file> (or -gen to create one); see -help"))
	}
	data, err := readData(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d elements from %s\n", len(data), *in)
	if err := analyze(data, *app, *buckets, *k, *window, *threads); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartoffline:", err)
	os.Exit(1)
}

func generate(path string, elems int, mean, stddev float64, seed uint64) error {
	em, err := sim.NewEmulator(sim.EmulatorConfig{StepElems: elems, Mean: mean, StdDev: stddev, Seed: seed})
	if err != nil {
		return err
	}
	if err := em.Step(); err != nil {
		return err
	}
	buf := make([]byte, 8*elems)
	for i, v := range em.Data() {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return os.WriteFile(path, buf, 0o644)
}

func readData(path string) ([]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf)%8 != 0 || len(buf) == 0 {
		return nil, fmt.Errorf("%s is not a float64 dataset (%d bytes)", path, len(buf))
	}
	data := make([]float64, len(buf)/8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return data, nil
}

func analyze(data []float64, app string, buckets, k, window, threads int) error {
	args := core.SchedArgs{NumThreads: threads, ChunkSize: 1, NumIters: 1}
	switch app {
	case "histogram":
		lo, hi := dataRange(data)
		h := analytics.NewHistogram(lo, hi, buckets)
		s := core.MustNewScheduler[float64, int64](h, args)
		out := make([]int64, buckets)
		if err := s.Run(data, out); err != nil {
			return err
		}
		width := (hi - lo) / float64(buckets)
		var peak int64
		for _, c := range out {
			if c > peak {
				peak = c
			}
		}
		for b, c := range out {
			bar := ""
			if peak > 0 {
				for i := int64(0); i < c*40/peak; i++ {
					bar += "#"
				}
			}
			fmt.Printf("  [%12.4f,%12.4f) %9d %s\n", lo+float64(b)*width, lo+float64(b+1)*width, c, bar)
		}
	case "moments":
		m := analytics.NewMoments(0, 0)
		s := core.MustNewScheduler[float64, float64](m, args)
		if err := s.Run(data, nil); err != nil {
			return err
		}
		obj := s.CombinationMap()[0].(*analytics.MomentsObj)
		fmt.Printf("  n        %d\n", obj.N)
		fmt.Printf("  mean     %.6f\n", obj.Mean)
		fmt.Printf("  variance %.6f\n", obj.Variance())
		fmt.Printf("  stddev   %.6f\n", math.Sqrt(obj.Variance()))
		fmt.Printf("  skewness %.6f\n", obj.Skewness())
		fmt.Printf("  kurtosis %.6f (excess)\n", obj.Kurtosis())
	case "topk":
		tk := analytics.NewTopK(k, 0)
		s := core.MustNewScheduler[float64, float64](tk, args)
		if err := s.Run(data, nil); err != nil {
			return err
		}
		for i, e := range tk.Extremes(s.CombinationMap()) {
			fmt.Printf("  #%-3d %.6f at position %d\n", i+1, e.Val, e.Pos)
		}
	case "movingavg":
		ma := analytics.NewMovingAverage(window, len(data), 0, true)
		s := core.MustNewScheduler[float64, float64](ma, args)
		out := make([]float64, len(data))
		if err := s.Run(data, out); err != nil {
			return err
		}
		n := min(len(out), 10)
		fmt.Printf("  first %d smoothed values:\n", n)
		for i := 0; i < n; i++ {
			fmt.Printf("    out[%d] = %.6f (raw %.6f)\n", i, out[i], data[i])
		}
		st := s.Stats()
		fmt.Printf("  %d windows emitted early; peak live reduction objects %d\n",
			st.EmittedEarly, st.MaxLiveRedObjs)
	default:
		return fmt.Errorf("unknown app %q (want histogram, moments, topk, movingavg)", app)
	}
	return nil
}

func dataRange(data []float64) (lo, hi float64) {
	lo, hi = data[0], data[0]
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi + 1e-9
}
