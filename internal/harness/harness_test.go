package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// The harness tests validate the structural shape of every regenerated
// figure at Small scale: who wins, where crashes fall, which series exist.
// Absolute magnitudes are checked loosely — Small-scale runs are dominated
// by constant overheads by design.

func allPoints(s *Series) []Point {
	if s == nil {
		return nil
	}
	return s.Points
}

func hasCrash(s *Series) bool {
	for _, p := range allPoints(s) {
		if p.Crashed {
			return true
		}
	}
	return false
}

func TestFig1Shape(t *testing.T) {
	res := minOfRuns(t, 5, Fig1)
	insitu := res.SeriesByName("in-situ total")
	offline := res.SeriesByName("offline total")
	io := res.SeriesByName("offline I/O")
	if insitu == nil || offline == nil || io == nil {
		t.Fatalf("missing series: %+v", res.Series)
	}
	if len(insitu.Points) != 5 {
		t.Fatalf("want 5 iteration counts, got %d", len(insitu.Points))
	}
	for _, p := range insitu.Points {
		off, ok := offline.YAt(p.X)
		if !ok {
			t.Fatalf("offline missing x=%v", p.X)
		}
		if off <= p.Y {
			t.Errorf("iters=%v: offline (%v) not slower than in-situ (%v)", p.X, off, p.Y)
		}
		ioY, _ := io.YAt(p.X)
		if ioY <= 0 || ioY >= off {
			t.Errorf("iters=%v: I/O time %v outside (0, total %v)", p.X, ioY, off)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	results, err := Fig5(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("want 3 sub-figures, got %d", len(results))
	}
	for _, res := range results {
		smart := res.SeriesByName("Smart")
		base := res.SeriesByName("conventional MR")
		if smart == nil || base == nil {
			t.Fatalf("%s: missing series", res.Figure)
		}
		for _, p := range smart.Points {
			b, ok := base.YAt(p.X)
			if !ok {
				t.Fatalf("%s: baseline missing x=%v", res.Figure, p.X)
			}
			// The headline result is an order of magnitude at full scale;
			// at Small scale constant costs shrink the gap, so require
			// only a clear (2x) win to keep the test robust under load.
			if b < 2*p.Y {
				t.Errorf("%s threads=%v: baseline %v not >2x Smart %v", res.Figure, p.X, b, p.Y)
			}
		}
	}
}

func TestFig5MemShape(t *testing.T) {
	res, err := Fig5Mem(Small)
	if err != nil {
		t.Fatal(err)
	}
	smart := res.SeriesByName("Smart")
	base := res.SeriesByName("conventional MR")
	for _, p := range smart.Points {
		b, _ := base.YAt(p.X)
		if b <= p.Y {
			t.Errorf("workload %v: conventional footprint %v not above Smart %v", p.X, b, p.Y)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	results, err := Fig6(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("want 2 sub-figures, got %d", len(results))
	}
	for _, res := range results {
		smart := res.SeriesByName("Smart")
		low := res.SeriesByName("hand-coded")
		if smart == nil || low == nil || len(smart.Points) != 4 {
			t.Fatalf("%s: malformed series", res.Figure)
		}
		for _, p := range smart.Points {
			l, _ := low.YAt(p.X)
			if p.Y <= 0 || l <= 0 {
				t.Errorf("%s nodes=%v: non-positive time", res.Figure, p.X)
			}
			// Smart must stay within the same ballpark as hand-coded
			// (small-scale constant costs inflate the gap; bound loosely).
			if p.Y > 4*l {
				t.Errorf("%s nodes=%v: Smart %v vs hand-coded %v beyond ballpark", res.Figure, p.X, p.Y, l)
			}
		}
	}
}

func TestFig6LoCShape(t *testing.T) {
	res, err := Fig6LoC()
	if err != nil {
		t.Skipf("source tree unavailable: %v", err)
	}
	lines := res.SeriesByName("lines")
	if lines == nil || len(lines.Points) != 3 {
		t.Fatalf("malformed LoC result: %+v", res.Series)
	}
	low, _ := lines.YAt(0)
	km, _ := lines.YAt(1)
	lr, _ := lines.YAt(2)
	if low <= km || low <= lr {
		t.Errorf("low-level (%v lines) should exceed each Smart app (%v, %v)", low, km, lr)
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Fig7(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 9 {
		t.Fatalf("want 9 applications, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 4 {
			t.Fatalf("%s: want 4 node counts, got %d", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("%s nodes=%v: non-positive time", s.Name, p.X)
			}
		}
	}
	if len(res.Notes) == 0 || !strings.Contains(res.Notes[0], "efficiency") {
		t.Error("missing efficiency note")
	}
}

// minOfRuns runs a figure at Small scale n times and returns the first run's
// result with every completed point's Y lowered to its minimum across the
// runs. Shape tests compare wall-clock ratios, and at Small scale one sample
// is at the mercy of whatever else the host runs (other test packages
// included); the minimum is the least noisy estimate of a point's cost.
func minOfRuns(t *testing.T, n int, fig func(Scale) (*Result, error)) *Result {
	t.Helper()
	best, err := fig(Small)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		res, err := fig(Small)
		if err != nil {
			t.Fatal(err)
		}
		for si := range best.Series {
			s := res.SeriesByName(best.Series[si].Name)
			if s == nil {
				continue
			}
			for pi := range best.Series[si].Points {
				p := &best.Series[si].Points[pi]
				if y, ok := s.YAt(p.X); ok && !p.Crashed && y < p.Y {
					p.Y = y
				}
			}
		}
	}
	return best
}

func TestFig8Shape(t *testing.T) {
	res := minOfRuns(t, 5, Fig8)
	if len(res.Series) != 9 {
		t.Fatalf("want 9 applications, got %d", len(res.Series))
	}
	// The compute-heavy window applications must get faster with threads.
	for _, name := range []string{"moving median", "kernel density estimation"} {
		s := res.SeriesByName(name)
		t1, ok1 := s.YAt(1)
		t8, ok8 := s.YAt(8)
		if !ok1 || !ok8 {
			t.Fatalf("%s: missing endpoints", name)
		}
		if t8 >= t1 {
			t.Errorf("%s: no thread speedup (%v -> %v)", name, t1, t8)
		}
	}
}

func TestFig9aShape(t *testing.T) {
	res, err := Fig9a(Small)
	if err != nil {
		t.Fatal(err)
	}
	zero := res.SeriesByName("zero-copy (Smart)")
	cp := res.SeriesByName("extra copy")
	if zero == nil || cp == nil {
		t.Fatal("missing series")
	}
	if hasCrash(zero) {
		t.Error("zero-copy variant crashed")
	}
}

func TestFig9bShape(t *testing.T) {
	res, err := Fig9b(Small)
	if err != nil {
		t.Fatal(err)
	}
	if hasCrash(res.SeriesByName("zero-copy (Smart)")) {
		t.Error("zero-copy variant crashed")
	}
}

func TestFig9FullScaleCrashPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment")
	}
	res, err := Fig9b(Full)
	if err != nil {
		t.Fatal(err)
	}
	if !hasCrash(res.SeriesByName("extra copy")) {
		t.Error("extra-copy variant never crashed at full scale")
	}
	if hasCrash(res.SeriesByName("zero-copy (Smart)")) {
		t.Error("zero-copy variant crashed at full scale")
	}
}

func TestFig10Shape(t *testing.T) {
	results, err := Fig10(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("want 3 sub-figures, got %d", len(results))
	}
	for _, res := range results {
		simOnly := res.SeriesByName("sim-only")
		ts := res.SeriesByName("time sharing")
		if simOnly == nil || ts == nil {
			t.Fatalf("%s: missing baseline series", res.Figure)
		}
		s, _ := simOnly.YAt(0)
		tsv, _ := ts.YAt(1)
		if tsv <= s {
			t.Errorf("%s: time sharing (%v) not above sim-only (%v)", res.Figure, tsv, s)
		}
		// All five space-sharing schemes present.
		for _, scheme := range []string{"50_10", "40_20", "30_30", "20_40", "10_50"} {
			if res.SeriesByName(scheme) == nil {
				t.Errorf("%s: missing scheme %s", res.Figure, scheme)
			}
		}
	}
}

func TestFig11aShape(t *testing.T) {
	res := minOfRuns(t, 5, Fig11a)
	trig := res.SeriesByName("with trigger (Smart)")
	plain := res.SeriesByName("no trigger")
	if trig == nil || plain == nil {
		t.Fatal("missing series")
	}
	if hasCrash(trig) {
		t.Error("triggered variant crashed")
	}
	// Where both complete, the trigger must never lose badly.
	for _, p := range plain.Points {
		if p.Crashed {
			continue
		}
		ty, ok := trig.YAt(p.X)
		if ok && ty > 2*p.Y {
			t.Errorf("x=%v: trigger (%v) much slower than no-trigger (%v)", p.X, ty, p.Y)
		}
	}
}

func TestFig11bShape(t *testing.T) {
	res, err := Fig11b(Small)
	if err != nil {
		t.Fatal(err)
	}
	if hasCrash(res.SeriesByName("with trigger (Smart)")) {
		t.Error("triggered variant crashed")
	}
}

func TestFig11FullScaleCrashAndSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiment")
	}
	res, err := Fig11a(Full)
	if err != nil {
		t.Fatal(err)
	}
	if !hasCrash(res.SeriesByName("no trigger")) {
		t.Error("no-trigger variant never crashed at full scale")
	}
	if gain := seriesGain(res, "no trigger", "with trigger (Smart)"); gain < 1 {
		t.Errorf("full-scale early-emission speedup %.2fx below 2x", 1+gain)
	}
}

func TestFigExt1Shape(t *testing.T) {
	res, err := FigExt1(Small)
	if err != nil {
		t.Fatal(err)
	}
	insitu := res.SeriesByName("in-situ")
	intransit := res.SeriesByName("in-transit")
	hybrid := res.SeriesByName("hybrid")
	if insitu == nil || intransit == nil || hybrid == nil {
		t.Fatal("missing series")
	}
	// At the lowest bandwidth, shipping raw time-steps must lose to
	// keeping the analytics in-situ; the hybrid must stay near in-situ.
	lowBW := insitu.Points[0].X
	for _, p := range insitu.Points {
		if p.X < lowBW {
			lowBW = p.X
		}
	}
	is, _ := insitu.YAt(lowBW)
	it, _ := intransit.YAt(lowBW)
	hy, _ := hybrid.YAt(lowBW)
	if it <= is {
		t.Errorf("at %v MB/s: in-transit (%v) should lose to in-situ (%v)", lowBW, it, is)
	}
	// The hybrid's claim: at scarce bandwidth it beats shipping raw steps,
	// because only the small combination map crosses the wire.
	if hy >= it {
		t.Errorf("at %v MB/s: hybrid (%v) should beat in-transit (%v)", lowBW, hy, it)
	}
}

func TestResultPrinting(t *testing.T) {
	res := &Result{Figure: "Fig X", Title: "demo", XLabel: "x", YLabel: "s"}
	res.AddPoint("a", 1, 0.5)
	res.AddPoint("b", 1, 1.5)
	res.AddCrash("b", 2)
	res.Note("headline %d", 42)
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Fig X", "demo", "CRASH", "headline 42", "0.5", "1.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("SMALL"); err != nil || s != Small {
		t.Errorf("ParseScale small: %v %v", s, err)
	}
	if s, err := ParseScale("full"); err != nil || s != Full {
		t.Errorf("ParseScale full: %v %v", s, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted junk")
	}
}

func TestSeriesGain(t *testing.T) {
	res := &Result{}
	res.AddPoint("slow", 1, 4)
	res.AddPoint("fast", 1, 2)
	res.AddCrash("slow", 2)
	res.AddPoint("fast", 2, 3)
	if g := seriesGain(res, "slow", "fast"); g != 1 {
		t.Errorf("gain %v, want 1 (crashed points excluded)", g)
	}
	if g := seriesGain(res, "missing", "fast"); g != 0 {
		t.Errorf("gain for missing series %v", g)
	}
}

func TestBestOf(t *testing.T) {
	calls := 0
	d, err := bestOf(3, func() (td time.Duration, err error) {
		calls++
		return time.Duration(4-calls) * time.Second, nil
	})
	if err != nil || calls != 3 || d != time.Second {
		t.Fatalf("bestOf: %v %v calls=%d", d, err, calls)
	}
}
