// Command smartbench regenerates the tables and figures of the paper's
// evaluation (Section 5). Each figure id maps to one experiment of the
// harness package; the output is the same rows/series the paper plots.
//
// Usage:
//
//	smartbench -fig all            # every figure, full scale
//	smartbench -fig 9b             # one figure
//	smartbench -fig 5 -scale small # quick run
//
// Figure ids: 1, 5, 5mem, 6, 6loc, 7, 8, 9a, 9b, 10, 11a, 11b, plus the
// extension experiments ext1 (in-situ vs in-transit vs hybrid) and stream
// (continuous windowed queries, warm reseed vs per-window rebuild); "all"
// runs everything.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/scipioneer/smart/internal/codec"
	"github.com/scipioneer/smart/internal/harness"
	"github.com/scipioneer/smart/internal/obs"
)

// experiment adapts every harness entry point to a common shape.
type experiment struct {
	id  string
	run func(harness.Scale) ([]*harness.Result, error)
}

func one(f func(harness.Scale) (*harness.Result, error)) func(harness.Scale) ([]*harness.Result, error) {
	return func(s harness.Scale) ([]*harness.Result, error) {
		r, err := f(s)
		if err != nil {
			return nil, err
		}
		return []*harness.Result{r}, nil
	}
}

var experiments = []experiment{
	{"1", one(harness.Fig1)},
	{"5", harness.Fig5},
	{"5mem", one(harness.Fig5Mem)},
	{"6", harness.Fig6},
	{"6loc", func(harness.Scale) ([]*harness.Result, error) {
		r, err := harness.Fig6LoC()
		if err != nil {
			return nil, err
		}
		return []*harness.Result{r}, nil
	}},
	{"7", one(harness.Fig7)},
	{"8", one(harness.Fig8)},
	{"9a", one(harness.Fig9a)},
	{"9b", one(harness.Fig9b)},
	{"10", harness.Fig10},
	{"11a", one(harness.Fig11a)},
	{"11b", one(harness.Fig11b)},
	{"ext1", one(harness.FigExt1)},
	{"stream", one(harness.FigStream)},
}

func main() {
	fig := flag.String("fig", "all", "figure id to regenerate (1, 5, 5mem, 6, 6loc, 7, 8, 9a, 9b, 10, 11a, 11b, ext1, stream, all)")
	scaleName := flag.String("scale", "full", "experiment scale: small or full")
	csvDir := flag.String("csv", "", "also write each figure as CSV into this directory")
	metricsFile := flag.String("metrics", "", "write a JSON snapshot of the runtime metrics to this file at exit")
	traceFile := flag.String("trace", "", "stream runtime phase spans to this file as JSON lines")
	chromeFile := flag.String("chrome-trace", "", "also convert the -trace JSONL into Chrome trace_event JSON at this path (open in Perfetto / chrome://tracing)")
	codecPin := flag.String("codec", "auto", "wire/checkpoint codec the experiments run with: auto (negotiate best), none, flate, or block")
	flag.Parse()

	if *codecPin != "auto" {
		enc, err := codec.Parse(*codecPin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-codec:", err)
			os.Exit(2)
		}
		codec.SetPreferred(enc)
	}

	scale, err := harness.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *chromeFile != "" && *traceFile == "" {
		fmt.Fprintln(os.Stderr, "-chrome-trace requires -trace FILE to capture the spans first")
		os.Exit(2)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		w := bufio.NewWriter(f)
		obs.Default().SetTraceWriter(w)
		defer func() {
			obs.Default().SetTraceWriter(nil)
			w.Flush()
			f.Close()
			if *chromeFile != "" {
				if err := convertChromeTrace(*chromeFile, *traceFile); err != nil {
					fmt.Fprintf(os.Stderr, "chrome-trace: %v\n", err)
				}
			}
		}()
	}
	if *metricsFile != "" {
		defer func() {
			if err := writeMetrics(*metricsFile); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			}
		}()
	}

	ran := 0
	for _, e := range experiments {
		if *fig != "all" && *fig != e.id {
			continue
		}
		ran++
		start := time.Now()
		results, err := e.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig %s: %v\n", e.id, err)
			os.Exit(1)
		}
		for _, r := range results {
			r.Print(os.Stdout)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, r); err != nil {
					fmt.Fprintf(os.Stderr, "fig %s csv: %v\n", e.id, err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("  [fig %s regenerated in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure id %q\n", *fig)
		os.Exit(2)
	}
}

// convertChromeTrace reads the JSONL span stream back and rewrites it as a
// Chrome trace_event file, so a single-process bench run gets the same
// viewer-ready artifact the cluster stitcher produces.
func convertChromeTrace(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := obs.ConvertJSONLToChrome(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeMetrics snapshots the default registry as indented JSON.
func writeMetrics(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.DefaultRegistry().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV saves one figure's table under dir.
func writeCSV(dir string, r *harness.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, r.CSVName()))
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteCSV(f)
}
