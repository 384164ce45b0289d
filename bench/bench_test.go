package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; must not be reordered
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Layer: otherLayer, Name: "op", Start: ms(0), End: ms(100)},
		// Nested: 2 holds 3; 3's time is not 2's self time.
		{ID: 2, Parent: 1, Op: 1, Layer: "a", Name: "outer", Start: ms(10), End: ms(50)},
		{ID: 3, Parent: 2, Op: 1, Layer: "b", Name: "inner", Start: ms(20), End: ms(30)},
		// Overlapping siblings under 1: [40,70) and [60,90) cover [40,90) with
		// span 2, counted once.
		{ID: 4, Parent: 1, Op: 1, Layer: "a", Name: "x", Start: ms(40), End: ms(70)},
		{ID: 5, Parent: 1, Op: 1, Layer: "b", Name: "y", Start: ms(60), End: ms(90)},
		// A child reaching outside its parent is clipped to it.
		{ID: 6, Parent: 3, Op: 1, Layer: "c", Name: "z", Start: ms(25), End: ms(45)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: ms(100) - ms(80), // children cover [10,90)
		2: ms(40) - ms(10),
		3: ms(10) - ms(5), // child 6 clipped to [25,30)
		4: ms(30),
		5: ms(30),
		6: ms(20),
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestLayerTableSumsToOp(t *testing.T) {
	// Two ops of sequential children: the rows add up to the mean op time
	// and the uncovered remainder lands on the root's layer.
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Layer: otherLayer, Name: "op", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Op: 1, Layer: "sim", Name: "Step", Start: ms(0), End: ms(2)},
		{ID: 3, Parent: 1, Op: 1, Layer: "core", Name: "Run", Start: ms(2), End: ms(9)},
		{ID: 4, Parent: 3, Op: 1, Layer: "core", Name: "reduction", Start: ms(3), End: ms(8)},
		{ID: 5, Parent: 0, Op: 2, Layer: otherLayer, Name: "op", Start: ms(20), End: ms(34)},
		{ID: 6, Parent: 5, Op: 2, Layer: "sim", Name: "Step", Start: ms(20), End: ms(24)},
		{ID: 7, Parent: 5, Op: 2, Layer: "core", Name: "Run", Start: ms(24), End: ms(33)},
		{ID: 8, Parent: 7, Op: 2, Layer: "core", Name: "reduction", Start: ms(25), End: ms(32)},
		// Calibration spans (op 0) stay out of the table.
		{ID: 9, Parent: 0, Op: 0, Layer: "mpi", Name: "Allreduce", Start: ms(40), End: ms(90)},
	}
	rows, opMean, sum := layerTable(spans)
	if opMean != ms(12) || sum != opMean {
		t.Fatalf("opMean = %v, sum = %v, want both 12ms", opMean, sum)
	}
	got := make(map[string]time.Duration)
	for _, r := range rows {
		got[r.Layer+"/"+r.Name] = r.PerOp
	}
	want := map[string]time.Duration{
		"sim/Step": ms(3), "core/Run": ms(2), "core/reduction": ms(6), otherLayer + "/op": ms(1),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %v, want %v", got, want)
	}
	if rows[0].Layer != "core" || rows[0].Name != "reduction" {
		t.Errorf("largest row first: got %v", rows[0])
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.begin(0, r.newOp(), "core", "Run")
	r.end(id)
	if id != 0 || r.add(0, 0, "core", "x", time.Now(), time.Now()) != 0 {
		t.Error("a nil recorder must record nothing and hand out id 0")
	}
}

// fakeClock drives a pacer without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPacerLatenessWhenPushStalls(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	start := clock.t
	p := &pacer{rate: 100, now: clock.now, sleep: clock.sleep} // one event per 10ms
	var due []time.Duration
	late, err := p.run(6, func(k int, d time.Time) error {
		due = append(due, d.Sub(start))
		cost := ms(1)
		if k == 1 {
			cost = ms(35) // this push stalls past the next three due times
		}
		clock.t = clock.t.Add(cost)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Due times never slip: an open loop keeps its schedule.
	if want := []time.Duration{0, ms(10), ms(20), ms(30), ms(40), ms(50)}; !reflect.DeepEqual(due, want) {
		t.Errorf("due = %v, want %v", due, want)
	}
	// Event 1 starts on time at 10ms and returns at 45ms; events 2, 3 and 4
	// were due meanwhile and start late, back to back; event 5 is on time.
	if want := []time.Duration{0, 0, ms(25), ms(16), ms(7), 0}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v, want %v", late, want)
	}
	if got := p.backlog(late[:3]); got != 2 {
		t.Errorf("backlog when event 2 began 25ms late = %d events, want 2", got)
	}

	wantErr := errors.New("sink full")
	late, err = p.run(3, func(k int, _ time.Time) error {
		if k == 1 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) || len(late) != 2 {
		t.Errorf("run after a failing push: err = %v, %d lateness samples; want the error and 2", err, len(late))
	}
}

// TestSmoke runs all six workloads at toy sizes, untraced and traced, so
// that the harness keeps compiling against the packages it measures and its
// oracles keep passing on correct output.
func TestSmoke(t *testing.T) {
	stderr = io.Discard
	defer func() { stderr = os.Stderr }()
	start := time.Now()
	for _, d := range workloadDefs {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(d.name, 7, 0.05, traced, toy, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", d.name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 || rep.Checked < rep.Attempted {
				t.Errorf("%s traced=%v: %d attempted, %d checked, %d failed", d.name, traced, rep.Attempted, rep.Checked, rep.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, m := range defs {
				if _, ok := rep.Values[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", d.name, traced, m.Name)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if !(rep.Values[m.Name] > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", d.name, m.Name, rep.Values[m.Name])
					}
				}
				continue
			}
			// Sequential spans: the layer rows account for the whole op.
			if rel := math.Abs(float64(rep.LayerSum-rep.OpMean)) / float64(rep.OpMean); rel > 0.10 {
				t.Errorf("%s: layer self times sum to %v, mean op is %v", d.name, rep.LayerSum, rep.OpMean)
			}
			if _, err := os.Stat(rep.TracePath); err != nil {
				t.Errorf("%s: trace file: %v", d.name, err)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke test took %v, budget is 10s", d)
	}
}

// TestOraclesCatchAWrongValue flips one reference value (or, where the
// oracle compares the system with itself, one output byte) per workload and
// expects the oracle to count failed ops.
func TestOraclesCatchAWrongValue(t *testing.T) {
	stderr = io.Discard
	defer func() { stderr = os.Stderr }()
	scratch := t.TempDir()
	// corrupt damages what the next verify compares against; instances whose
	// reference is filled in lazily are verified once first.
	corrupt := map[string]func(instance){
		"insitu-time-kmeans":     func(i instance) { i.(*kmeansInstance).w.ref[0][0] += 1e-6 },
		"insitu-space-movingavg": func(i instance) { i.(*movingAvgInstance).w.ref[0][0] += 1e-6 },
		"combine-wide-hist":      func(i instance) { i.(*combineInstance).ref[0][0]++ },
		"serve-mixed": func(i instance) {
			for k, ref := range i.(*serveInstance).w.refs {
				i.(*serveInstance).w.refs[k] = append(ref, ' ')
			}
		},
		"stream-sliding": func(i instance) { i.(*streamInstance).moments[0].Mean += 1e-6 },
		"recover-ckpt": func(i instance) {
			i.(*ckptInstance).afterWrite = func(path string) {
				buf, err := os.ReadFile(path)
				if err == nil {
					buf[len(buf)-1] ^= 1 // inside the last reduction object
					err = os.WriteFile(path, buf, 0o644)
				}
				if err != nil {
					t.Error(err)
				}
			}
		},
	}
	for _, d := range workloadDefs {
		inst, err := d.make(7, toy, scratch).build()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		res := &result{}
		run := func() {
			if err := inst.rep(res); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			inst.verify(res)
		}
		run()
		if res.failed != 0 || res.checked == 0 {
			t.Errorf("%s: before the flip: %d checked, %d failed", d.name, res.checked, res.failed)
		}
		corrupt[d.name](inst)
		run()
		if res.failed == 0 {
			t.Errorf("%s: the oracle accepted a wrong value", d.name)
		}
		inst.close()
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json, which the driver reads, in
// step with the tables the program reports from.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default is %d", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths = %v, command = %v", spec.Paths, spec.Command)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, program has %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d = %+v, program has %q: %q", i, w, workloadDefs[i].name, workloadDefs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit is 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, program has %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
}
