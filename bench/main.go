// Command bench is the repository's end-to-end benchmark: six fixed
// workloads, each measured from outside through the packages' public
// functions and read-outs, with the same end-to-end metrics on every
// workload and a traced run that attributes the op time to layers.
//
// The driver contract (BENCHMARK.json) runs one workload per process:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Without --workload it runs every workload, untraced then traced, each in
// its own subprocess, and prints every metric; with --aa it runs the set
// twice and checks that the two agree within the bounds. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultSeed and defaultSeconds are what the all-workloads mode runs with;
// BENCHMARK.json's run_seconds repeats the second.
const (
	defaultSeed    = 1
	defaultSeconds = 10
)

// outDir receives the trace files, the stored results and the checkpoint
// scratch directory; it is relative to the repository root, where run.sh
// starts the program.
var outDir = filepath.Join("bench", "out")

// pinnedProcs is GOMAXPROCS for the whole run: min(maxBusy, nproc).
var pinnedProcs = pinProcs()

var stderr io.Writer = os.Stderr

func main() {
	workload := flag.String("workload", "", "run this one workload (default: all, each in a subprocess)")
	seed := flag.Uint64("seed", defaultSeed, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	aa := flag.Bool("aa", false, "run the set twice on this build and compare within the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1)
	case *aa:
		err = runAA(*seed, *seconds)
	default:
		err = runAll(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outcome is the last line a run prints, the driver's contract.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(name string, seed uint64, seconds float64, traced bool) error {
	rep, err := runWorkload(name, seed, seconds, traced, frozen, outDir)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep, seed)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := outcome{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: rep.Values[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed", name, rep.Failed, rep.Attempted)
	}
	return nil
}

// printReport prints one run for a reader: machine facts, every metric by
// name with unit, direction and sample count, and for a traced run the
// layer table.
func printReport(w io.Writer, rep *report, seed uint64) {
	m := facts(outDir)
	fmt.Fprintf(w, "# %s  seed=%d  trace=%v\n", rep.Workload, seed, rep.Traced)
	fmt.Fprintf(w, "# machine: nproc=%d GOMAXPROCS=%d %s cpu=%q scratch_fs=%s\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPUModel, m.ScratchFS)
	fmt.Fprintf(w, "# ops: %d attempted, %d failed, %d checked by the oracle (failed_share %.4f)\n",
		rep.Attempted, rep.Failed, rep.Checked, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	if !rep.Traced {
		fmt.Fprintf(w, "%-24s %-16s %-7s %-7s %8s  %s\n", "workload", "metric", "unit", "better", "samples", "value")
		for _, d := range endToEnd {
			samples := strconv.Itoa(rep.Attempted)
			switch d.Name {
			case "setup_s":
				samples = strconv.Itoa(setupRounds)
			case "throughput_eps":
				samples = strconv.Itoa(rep.Stretches)
			case "op_s_p95", "peak_rss_bytes":
				samples = strconv.Itoa(rep.Reps)
			}
			fmt.Fprintf(w, "%-24s %-16s %-7s %-7s %8s  %.6g\n", rep.Workload, d.Name, d.Unit, d.Better, samples, rep.Values[d.Name])
		}
		fmt.Fprintf(w, "# op_s_p95 is the median over %d repetitions of each repetition's p95; all %d ops pooled support p%g by the ten-samples-beyond rule\n",
			rep.Reps, rep.Attempted, supportedPercentile(rep.Attempted))
		return
	}
	fmt.Fprintf(w, "%-24s %-28s %-6s %-7s %8s  %s\n", "workload", "layer metric", "unit", "better", "samples", "value (median of the traced samples)")
	for _, d := range perLayer {
		if v := rep.Values[d.Name]; v != 0 { // a layer the workload never enters reads 0
			fmt.Fprintf(w, "%-24s %-28s %-6s %-7s %8d  %.6g\n", rep.Workload, d.Name, d.Unit, d.Better, rep.Samples[d.Name], v)
		}
	}
	fmt.Fprintf(w, "# layer table: self time per mean op (%v), %s\n", rep.OpMean, rep.TracePath)
	for _, row := range rep.Layers {
		fmt.Fprintf(w, "  %-8s %-56s %12v %6.1f%%\n", row.Layer, row.Name, row.PerOp, 100*row.Share)
	}
	fmt.Fprintf(w, "  %-8s %-56s %12v %6.1f%%\n", "sum", "", rep.LayerSum, 100*float64(rep.LayerSum)/float64(max(rep.OpMean, 1)))
	if over := rep.Values["obs.trace_overhead"]; over > 0.05 {
		fmt.Fprintf(w, "# trace_overhead %.3f exceeds 0.05: the layer numbers above are perturbed by tracing\n", over)
	} else {
		fmt.Fprintf(w, "# trace_overhead %.3f\n", over)
	}
}

// child runs one workload in a subprocess of this binary, so that
// peak_rss_bytes is the workload's own, passes its report through and
// returns the outcome it printed last.
func child(name string, seed uint64, seconds float64, traced bool) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", name, runErr)
	}
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("%s: last line is not an outcome: %w", name, err)
	}
	return &out, nil
}

// storedResults is what runAll leaves in bench/out/results.json.
type storedResults struct {
	Machine   machineFacts                      `json:"machine"`
	Seed      uint64                            `json:"seed"`
	Seconds   float64                           `json:"seconds"`
	EndToEnd  map[string]map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]map[string]metricValue `json:"per_layer"`
	Attempted map[string]int                    `json:"attempted"`
	Failed    map[string]int                    `json:"failed"`
}

func runAll(seed uint64, seconds float64) error {
	st := storedResults{Machine: facts(outDir), Seed: seed, Seconds: seconds,
		EndToEnd:  make(map[string]map[string]metricValue),
		PerLayer:  make(map[string]map[string]metricValue),
		Attempted: make(map[string]int), Failed: make(map[string]int)}
	for _, d := range workloadDefs {
		plain, err := child(d.name, seed, seconds, false)
		if err != nil {
			return err
		}
		layers, err := child(d.name, seed, seconds, true)
		if err != nil {
			return err
		}
		fmt.Println()
		st.EndToEnd[d.name], st.PerLayer[d.name] = plain.Metrics, layers.Metrics
		st.Attempted[d.name], st.Failed[d.name] = plain.Attempted, plain.Failed
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("# results stored in", path)
	return nil
}

// worse is by how large a share of a, b is worse than a in the metric's
// direction; negative when b is better.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA runs the whole set twice on the same build. The two sets measure
// the same code, so any difference is noise: a bound that the difference
// exceeds cannot tell a regression from it.
func runAA(seed uint64, seconds float64) error {
	var sets [2]map[string]*outcome
	for i := range sets {
		sets[i] = make(map[string]*outcome)
		for _, d := range workloadDefs {
			out, err := child(d.name, seed, seconds, false)
			if err != nil {
				return err
			}
			sets[i][d.name] = out
		}
	}
	fmt.Printf("\n%-24s %-16s %14s %14s %9s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	exceeded := 0
	for _, d := range workloadDefs {
		for _, m := range endToEnd {
			a, b := sets[0][d.name].Metrics[m.Name].Value, sets[1][d.name].Metrics[m.Name].Value
			diff := max(worse(m, a, b), worse(m, b, a))
			mark := ""
			if diff > m.Bound {
				mark = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-24s %-16s %14.6g %14.6g %8.1f%% %5.0f%%%s\n", d.name, m.Name, a, b, 100*diff, 100*m.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("A/A: %d metric(s) differ by more than their bound between two runs of the same build", exceeded)
	}
	return nil
}
