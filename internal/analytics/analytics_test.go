package analytics

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/mpi"
)

// synthetic deterministic input
func synth(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func args(threads, chunkSize, iters int) core.SchedArgs {
	return core.SchedArgs{NumThreads: threads, ChunkSize: chunkSize, NumIters: iters}
}

// --- grid aggregation ---

func TestGridAgg(t *testing.T) {
	in := synth(1000, func(i int) float64 { return float64(i) })
	app := NewGridAgg(100, 0)
	s := core.MustNewScheduler[float64, float64](app, args(3, 1, 1))
	out := make([]float64, 10)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < 10; cell++ {
		want := float64(cell*100) + 49.5
		if !almostEqual(out[cell], want, 1e-9) {
			t.Errorf("cell %d = %v, want %v", cell, out[cell], want)
		}
	}
}

func TestGridAggRaggedTail(t *testing.T) {
	in := synth(250, func(i int) float64 { return 1 })
	app := NewGridAgg(100, 0)
	s := core.MustNewScheduler[float64, float64](app, args(2, 1, 1))
	out := make([]float64, 3)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < 3; cell++ {
		if !almostEqual(out[cell], 1, 1e-12) {
			t.Errorf("cell %d = %v, want 1", cell, out[cell])
		}
	}
}

// --- histogram ---

func TestHistogram(t *testing.T) {
	in := synth(10000, func(i int) float64 { return float64(i%100) + 0.5 })
	app := NewHistogram(0, 100, 20)
	s := core.MustNewScheduler[float64, int64](app, args(4, 1, 1))
	out := make([]int64, 20)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range out {
		total += c
		if c != 500 {
			t.Errorf("uneven bucket: %d", c)
		}
	}
	if total != 10000 {
		t.Fatalf("total %d", total)
	}
}

func TestHistogramClamping(t *testing.T) {
	in := []float64{-100, -1, 0, 50, 99.9, 100, 1e9}
	app := NewHistogram(0, 100, 10)
	s := core.MustNewScheduler[float64, int64](app, args(1, 1, 1))
	out := make([]int64, 10)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 { // -100, -1, 0
		t.Errorf("first bucket %d, want 3", out[0])
	}
	if out[9] != 3 { // 99.9, 100, 1e9
		t.Errorf("last bucket %d, want 3", out[9])
	}
}

func TestHistogramCountPreservation(t *testing.T) {
	f := func(raw []float64, buckets uint8) bool {
		if len(raw) == 0 {
			return true
		}
		in := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) {
				v = 0
			}
			in[i] = v
		}
		b := int(buckets%50) + 1
		app := NewHistogram(-10, 10, b)
		s := core.MustNewScheduler[float64, int64](app, args(2, 1, 1))
		out := make([]int64, b)
		if err := s.Run(in, out); err != nil {
			return false
		}
		var total int64
		for _, c := range out {
			total += c
		}
		return total == int64(len(in))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- mutual information ---

func TestMutualInfoIndependent(t *testing.T) {
	// Independent uniform variables: MI ~ 0.
	n := 20000
	in := make([]float64, 2*n)
	state := uint64(12345)
	next := func() float64 {
		// splitmix64
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z%1000000) / 1000000
	}
	for i := 0; i < n; i++ {
		in[2*i] = next()
		in[2*i+1] = next()
	}
	app := NewMutualInfo(0, 1, 10, 0, 1, 10)
	s := core.MustNewScheduler[float64, int64](app, args(2, 2, 1))
	if err := s.Run(in, nil); err != nil {
		t.Fatal(err)
	}
	com := s.CombinationMap()
	mi := app.MI(com)
	if mi < 0 || mi > 0.05 {
		t.Fatalf("independent MI = %v, want ~0", mi)
	}
	// The sum over joint cells runs in key order: repeated calls on one
	// map return the same bits.
	for i := 0; i < 20; i++ {
		if again := app.MI(com); math.Float64bits(again) != math.Float64bits(mi) {
			t.Fatalf("call %d: MI = %v, first call %v", i, again, mi)
		}
	}
}

func TestMutualInfoDependent(t *testing.T) {
	// Y = X: MI = H(X) = log(buckets) for uniform X.
	n := 10000
	in := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		x := float64(i%10)/10 + 0.05
		in[2*i] = x
		in[2*i+1] = x
	}
	app := NewMutualInfo(0, 1, 10, 0, 1, 10)
	s := core.MustNewScheduler[float64, int64](app, args(3, 2, 1))
	if err := s.Run(in, nil); err != nil {
		t.Fatal(err)
	}
	mi := app.MI(s.CombinationMap())
	if !almostEqual(mi, math.Log(10), 1e-6) {
		t.Fatalf("dependent MI = %v, want log(10)=%v", mi, math.Log(10))
	}
}

func TestMutualInfoEmpty(t *testing.T) {
	app := NewMutualInfo(0, 1, 4, 0, 1, 4)
	if mi := app.MI(core.CombMap{}); mi != 0 {
		t.Fatalf("empty MI = %v", mi)
	}
}

// --- logistic regression ---

// lrData builds a linearly separable binary dataset with Dims features
// (plus label), decision boundary w·x > 0 with w = (1, -1, 0.5, ...).
func lrData(n, dims int) ([]float64, []float64) {
	w := make([]float64, dims)
	for i := range w {
		w[i] = float64(i%3) - 1 // -1, 0, 1 pattern
	}
	w[0] = 2
	rec := dims + 1
	data := make([]float64, n*rec)
	for i := 0; i < n; i++ {
		z := 0.0
		for j := 0; j < dims; j++ {
			v := math.Sin(float64(i*31 + j*17)) // deterministic pseudo-random in [-1,1]
			data[i*rec+j] = v
			z += w[j] * v
		}
		if z > 0 {
			data[i*rec+dims] = 1
		}
	}
	return data, w
}

func TestLogRegLearnsSeparableData(t *testing.T) {
	const n, dims = 2000, 5
	data, _ := lrData(n, dims)
	app := NewLogReg(dims, 0.5)
	s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: 2, ChunkSize: dims + 1, NumIters: 50,
	})
	if err := s.Run(data, nil); err != nil {
		t.Fatal(err)
	}
	w := app.Weights(s.CombinationMap())
	if len(w) != dims {
		t.Fatalf("weights length %d", len(w))
	}
	// Training accuracy should be high on separable data.
	correct := 0
	rec := dims + 1
	for i := 0; i < n; i++ {
		p := Predict(w, data[i*rec:i*rec+dims])
		pred := 0.0
		if p > 0.5 {
			pred = 1
		}
		if pred == data[i*rec+dims] {
			correct++
		}
	}
	if acc := float64(correct) / n; acc < 0.95 {
		t.Fatalf("accuracy %v, want >= 0.95", acc)
	}
}

func TestLogRegMatchesSequentialReference(t *testing.T) {
	// The framework's batch gradient descent must match a hand-rolled
	// sequential implementation bit-for-bit in structure (same updates).
	const n, dims, iters = 500, 3, 5
	const lr = 0.3
	data, _ := lrData(n, dims)
	app := NewLogReg(dims, lr)
	s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
		NumThreads: 1, ChunkSize: dims + 1, NumIters: iters,
	})
	if err := s.Run(data, nil); err != nil {
		t.Fatal(err)
	}
	got := app.Weights(s.CombinationMap())

	w := make([]float64, dims)
	rec := dims + 1
	for it := 0; it < iters; it++ {
		grad := make([]float64, dims)
		for i := 0; i < n; i++ {
			x := data[i*rec : i*rec+dims]
			y := data[i*rec+dims]
			z := 0.0
			for j := range w {
				z += w[j] * x[j]
			}
			e := 1/(1+math.Exp(-z)) - y
			for j := range grad {
				grad[j] += e * x[j]
			}
		}
		for j := range w {
			w[j] -= lr / n * grad[j]
		}
	}
	for j := range w {
		if !almostEqual(got[j], w[j], 1e-9) {
			t.Fatalf("weight %d = %v, reference %v", j, got[j], w[j])
		}
	}
}

func TestLogRegDistributedMatchesSingleNode(t *testing.T) {
	const n, dims, iters = 800, 4, 10
	data, _ := lrData(n, dims)
	rec := dims + 1

	single := NewLogReg(dims, 0.5)
	s1 := core.MustNewScheduler[float64, float64](single, core.SchedArgs{
		NumThreads: 1, ChunkSize: rec, NumIters: iters,
	})
	if err := s1.Run(data, nil); err != nil {
		t.Fatal(err)
	}
	want := single.Weights(s1.CombinationMap())

	const ranks = 4
	comms := mpi.NewWorld(ranks)
	per := n / ranks * rec
	results := make([][]float64, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[r].Close()
			app := NewLogReg(dims, 0.5)
			s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
				NumThreads: 2, ChunkSize: rec, NumIters: iters, Comm: comms[r],
			})
			if err := s.Run(data[r*per:(r+1)*per], nil); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = app.Weights(s.CombinationMap())
		}()
	}
	wg.Wait()
	for r := range results {
		for j := range want {
			if !almostEqual(results[r][j], want[j], 1e-9) {
				t.Fatalf("rank %d weight %d = %v, want %v", r, j, results[r][j], want[j])
			}
		}
	}
}

// --- k-means ---

// blob generates points near the given centers, dims-dimensional.
func blobs(perCluster int, centers [][]float64) []float64 {
	dims := len(centers[0])
	var out []float64
	for ci, c := range centers {
		for i := 0; i < perCluster; i++ {
			for d := 0; d < dims; d++ {
				jitter := 0.1 * math.Sin(float64(i*13+ci*7+d*3))
				out = append(out, c[d]+jitter)
			}
		}
	}
	return out
}

func TestKMeansRecoversClusters(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 5}}
	in := blobs(300, centers)
	app := NewKMeans(3, 2)
	init := []float64{1, 1, 8, 8, -8, 4}
	s := core.MustNewScheduler[float64, []float64](app, core.SchedArgs{
		NumThreads: 2, ChunkSize: 2, NumIters: 15, Extra: init,
	})
	if err := s.Run(in, nil); err != nil {
		t.Fatal(err)
	}
	got := app.Centroids(s.CombinationMap())
	for _, c := range centers {
		found := false
		for _, g := range got {
			if almostEqual(g[0], c[0], 0.2) && almostEqual(g[1], c[1], 0.2) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("center %v not recovered; got %v", c, got)
		}
	}
}

func TestKMeansThreadInvariance(t *testing.T) {
	centers := [][]float64{{0, 0, 0, 0}, {5, 5, 5, 5}}
	in := blobs(200, centers)
	init := []float64{1, 1, 1, 1, 4, 4, 4, 4}
	run := func(threads int) [][]float64 {
		app := NewKMeans(2, 4)
		s := core.MustNewScheduler[float64, []float64](app, core.SchedArgs{
			NumThreads: threads, ChunkSize: 4, NumIters: 10, Extra: init,
		})
		if err := s.Run(in, nil); err != nil {
			t.Fatal(err)
		}
		return app.Centroids(s.CombinationMap())
	}
	want := run(1)
	for _, nt := range []int{2, 4} {
		got := run(nt)
		for k := range want {
			for d := range want[k] {
				if !almostEqual(got[k][d], want[k][d], 1e-9) {
					t.Fatalf("nt=%d centroid %d dim %d: %v vs %v", nt, k, d, got[k][d], want[k][d])
				}
			}
		}
	}
}

func TestKMeansConvertOutputsCentroids(t *testing.T) {
	in := blobs(50, [][]float64{{1, 2}, {8, 9}})
	app := NewKMeans(2, 2)
	s := core.MustNewScheduler[float64, []float64](app, core.SchedArgs{
		NumThreads: 1, ChunkSize: 2, NumIters: 5, Extra: []float64{0, 0, 10, 10},
	})
	out := make([][]float64, 2)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	for k, c := range out {
		if len(c) != 2 {
			t.Fatalf("centroid %d: %v", k, c)
		}
	}
}

func TestKMeansBadExtraPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad extra data did not panic")
		}
	}()
	app := NewKMeans(2, 2)
	app.ProcessExtraData([]float64{1}, core.CombMap{})
}

// --- window applications ---

func windowInput(n int) []float64 {
	return synth(n, func(i int) float64 { return math.Sin(float64(i)/9)*5 + float64(i%7) })
}

func naiveMovingAverage(in []float64, w int) []float64 {
	h := w / 2
	out := make([]float64, len(in))
	for i := range in {
		lo, hi := max(i-h, 0), min(i+h, len(in)-1)
		s := 0.0
		for j := lo; j <= hi; j++ {
			s += in[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

func TestMovingAverageMatchesNaive(t *testing.T) {
	in := windowInput(500)
	for _, trigger := range []bool{false, true} {
		app := NewMovingAverage(7, len(in), 0, trigger)
		s := core.MustNewScheduler[float64, float64](app, args(3, 1, 1))
		out := make([]float64, len(in))
		if err := s.Run(in, out); err != nil {
			t.Fatal(err)
		}
		want := naiveMovingAverage(in, 7)
		for i := range want {
			if !almostEqual(out[i], want[i], 1e-9) {
				t.Fatalf("trigger=%v: out[%d] = %v, want %v", trigger, i, out[i], want[i])
			}
		}
	}
}

func TestMovingAverageTriggerReducesFootprint(t *testing.T) {
	in := windowInput(20000)
	run := func(trigger bool) *core.Stats {
		app := NewMovingAverage(25, len(in), 0, trigger)
		s := core.MustNewScheduler[float64, float64](app, args(2, 1, 1))
		out := make([]float64, len(in))
		if err := s.Run(in, out); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}
	off := run(false)
	on := run(true)
	if on.EmittedEarly == 0 {
		t.Fatal("trigger emitted nothing")
	}
	if on.MaxLiveRedObjs*100 > off.MaxLiveRedObjs {
		t.Fatalf("live objects: trigger %d vs plain %d — want >=100x reduction",
			on.MaxLiveRedObjs, off.MaxLiveRedObjs)
	}
}

func naiveMovingMedian(in []float64, w int) []float64 {
	h := w / 2
	out := make([]float64, len(in))
	for i := range in {
		lo, hi := max(i-h, 0), min(i+h, len(in)-1)
		out[i] = median(in[lo : hi+1])
	}
	return out
}

func TestMovingMedianMatchesNaive(t *testing.T) {
	in := windowInput(400)
	for _, trigger := range []bool{false, true} {
		app := NewMovingMedian(11, len(in), 0, trigger)
		s := core.MustNewScheduler[float64, float64](app, args(2, 1, 1))
		out := make([]float64, len(in))
		if err := s.Run(in, out); err != nil {
			t.Fatal(err)
		}
		want := naiveMovingMedian(in, 11)
		for i := range want {
			if !almostEqual(out[i], want[i], 1e-9) {
				t.Fatalf("trigger=%v: median[%d] = %v, want %v", trigger, i, out[i], want[i])
			}
		}
	}
}

func TestMedianHelper(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 2, 1, 3}, 2.5},
	} {
		if got := median(tc.in); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestKernelDensityMatchesNaive(t *testing.T) {
	in := windowInput(300)
	const w = 25
	app := NewKernelDensity(w, len(in), 0, false, 0)
	s := core.MustNewScheduler[float64, float64](app, args(2, 1, 1))
	out := make([]float64, len(in))
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	h := w / 2
	sigma := float64(w) / 5
	for i := range in {
		lo, hi := max(i-h, 0), min(i+h, len(in)-1)
		ws, ww := 0.0, 0.0
		for j := lo; j <= hi; j++ {
			z := float64(j-i) / sigma
			wt := math.Exp(-z * z / 2)
			ws += wt * in[j]
			ww += wt
		}
		if !almostEqual(out[i], ws/ww, 1e-9) {
			t.Fatalf("kde[%d] = %v, want %v", i, out[i], ws/ww)
		}
	}
}

func TestKernelDensityTriggerEquivalence(t *testing.T) {
	in := windowInput(2000)
	run := func(trigger bool) []float64 {
		app := NewKernelDensity(25, len(in), 0, trigger, 0)
		s := core.MustNewScheduler[float64, float64](app, args(2, 1, 1))
		out := make([]float64, len(in))
		if err := s.Run(in, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	off, on := run(false), run(true)
	for i := range off {
		if !almostEqual(off[i], on[i], 1e-9) {
			t.Fatalf("trigger changed kde at %d: %v vs %v", i, off[i], on[i])
		}
	}
}

func TestSavGolCoeffsKnownValues(t *testing.T) {
	// Classic quadratic, window 5: (-3, 12, 17, 12, -3)/35.
	got := savgolCoeffs(2, 2)
	want := []float64{-3.0 / 35, 12.0 / 35, 17.0 / 35, 12.0 / 35, -3.0 / 35}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-9) {
			t.Fatalf("coeff %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Coefficients of any smoothing filter sum to 1.
	for _, tc := range []struct{ half, order int }{{3, 2}, {7, 3}, {12, 4}} {
		cs := savgolCoeffs(tc.half, tc.order)
		sum := 0.0
		for _, c := range cs {
			sum += c
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("half=%d order=%d: coefficient sum %v", tc.half, tc.order, sum)
		}
	}
}

func TestSavGolPreservesPolynomials(t *testing.T) {
	// A Savitzky-Golay filter of order p reproduces polynomials of degree
	// <= p exactly on interior points.
	n := 100
	in := synth(n, func(i int) float64 { x := float64(i); return 2 + 3*x + 0.5*x*x })
	app := NewSavitzkyGolay(7, 2, n, 0, false)
	s := core.MustNewScheduler[float64, float64](app, args(2, 1, 1))
	out := make([]float64, n)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < n-3; i++ {
		if !almostEqual(out[i], in[i], 1e-6) {
			t.Fatalf("savgol[%d] = %v, want %v", i, out[i], in[i])
		}
	}
}

func TestSavGolSmoothsNoise(t *testing.T) {
	n := 200
	noisy := synth(n, func(i int) float64 {
		return math.Sin(float64(i)/20) + 0.3*math.Sin(float64(i*7919))
	})
	smooth := synth(n, func(i int) float64 { return math.Sin(float64(i) / 20) })
	app := NewSavitzkyGolay(15, 2, n, 0, true)
	s := core.MustNewScheduler[float64, float64](app, args(2, 1, 1))
	out := make([]float64, n)
	if err := s.Run(noisy, out); err != nil {
		t.Fatal(err)
	}
	// Residual to the clean signal must shrink vs the noisy input.
	var noisyErr, filteredErr float64
	for i := 10; i < n-10; i++ {
		noisyErr += math.Abs(noisy[i] - smooth[i])
		filteredErr += math.Abs(out[i] - smooth[i])
	}
	if filteredErr >= noisyErr/2 {
		t.Fatalf("filter did not smooth: noisy %v filtered %v", noisyErr, filteredErr)
	}
}

func TestSavGolInvalidOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("order >= size accepted")
		}
	}()
	NewSavitzkyGolay(5, 5, 100, 0, false)
}

func TestWindowDistributedMatchesSingleNode(t *testing.T) {
	// Moving average across 4 ranks, each owning a contiguous slice, must
	// reproduce the single-node result including cross-rank windows.
	const n = 400
	in := windowInput(n)
	want := naiveMovingAverage(in, 9)

	const ranks = 4
	per := n / ranks
	comms := mpi.NewWorld(ranks)
	results := make([][]float64, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[r].Close()
			app := NewMovingAverage(9, n, r*per, true)
			s := core.MustNewScheduler[float64, float64](app, core.SchedArgs{
				NumThreads: 2, ChunkSize: 1, NumIters: 1, Comm: comms[r], OutBase: r * per,
			})
			out := make([]float64, per)
			if err := s.Run(in[r*per:(r+1)*per], out); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = out
		}()
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		for i := 0; i < per; i++ {
			if !almostEqual(results[r][i], want[r*per+i], 1e-9) {
				t.Fatalf("rank %d out[%d] = %v, want %v", r, i, results[r][i], want[r*per+i])
			}
		}
	}
}

func TestWindowValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewMovingAverage(4, 10, 0, false) }, // even window
		func() { NewMovingAverage(7, 0, 0, false) },  // empty array
		func() { NewGridAgg(0, 0) },
		func() { NewHistogram(5, 5, 10) },
		func() { NewMutualInfo(0, 1, 0, 0, 1, 10) },
		func() { NewLogReg(0, 0.1) },
		func() { NewKMeans(0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction did not panic")
				}
			}()
			fn()
		}()
	}
}

// --- reduction object codecs ---

// zeroOf returns a fresh zero-valued object of obj's concrete type, the
// decode target of the codec tests.
func zeroOf(obj core.RedObj) core.RedObj {
	return reflect.New(reflect.TypeOf(obj).Elem()).Interface().(core.RedObj)
}

func TestRedObjCodecs(t *testing.T) {
	objs := []core.RedObj{
		&CountObj{Count: 42},
		&SumCountObj{Sum: 3.5, Count: 7, Expected: 25},
		&WeightedObj{WSum: -1.25, Weight: 0.5, Count: 3, Expected: 9},
		&ValuesObj{Values: []float64{1, 2, 3.5}, Expected: 11},
		&ClusterObj{Centroid: []float64{1, 2}, Sum: []float64{3, 4}, Size: 5},
		&GradObj{Weights: []float64{0.1, -0.2}, Grad: []float64{1, 2}, Count: 9},
	}
	for _, obj := range objs {
		buf, err := obj.MarshalBinary()
		if err != nil {
			t.Fatalf("%T marshal: %v", obj, err)
		}
		dec := zeroOf(obj)
		if err := dec.UnmarshalBinary(buf); err != nil {
			t.Fatalf("%T unmarshal: %v", obj, err)
		}
		buf2, err := dec.MarshalBinary()
		if err != nil {
			t.Fatalf("%T re-marshal: %v", obj, err)
		}
		if string(buf) != string(buf2) {
			t.Fatalf("%T roundtrip mismatch", obj)
		}
		if err := dec.UnmarshalBinary(append(buf, 0)); err == nil {
			t.Errorf("%T accepted trailing bytes", obj)
		}
		if err := dec.UnmarshalBinary(buf[:len(buf)-1]); err == nil {
			t.Errorf("%T accepted truncation", obj)
		}
	}
}

// TestCloneIndependence pins that UnmarshalBinary copies the slice-backed
// objects out of its input: the store's decoders hand out sub-slices of one
// frame buffer that are valid only during the call.
func TestCloneIndependence(t *testing.T) {
	for _, obj := range []core.RedObj{
		&ClusterObj{Centroid: []float64{1}, Sum: []float64{2}, Size: 3},
		&ValuesObj{Values: []float64{1, 2}, Expected: 4},
		&GradObj{Weights: []float64{1}, Grad: []float64{2}, Count: 5},
	} {
		buf, err := obj.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dec := zeroOf(obj)
		if err := dec.UnmarshalBinary(buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xff
		}
		got, err := dec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := obj.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Fatalf("%T shares its UnmarshalBinary input", obj)
		}
	}
}

func TestMatrixInverse(t *testing.T) {
	m := [][]float64{{4, 7}, {2, 6}}
	inv := invertMatrix(m)
	want := [][]float64{{0.6, -0.7}, {-0.2, 0.4}}
	for i := range want {
		for j := range want[i] {
			if !almostEqual(inv[i][j], want[i][j], 1e-9) {
				t.Fatalf("inv[%d][%d] = %v, want %v", i, j, inv[i][j], want[i][j])
			}
		}
	}
}

func TestMatrixInverseProperty(t *testing.T) {
	// inv(M) * M == I for random diagonally-dominant matrices.
	f := func(seed uint32) bool {
		n := int(seed%3) + 2
		m := make([][]float64, n)
		x := float64(seed%1000) / 500
		for i := range m {
			m[i] = make([]float64, n)
			for j := range m[i] {
				m[i][j] = math.Sin(float64(i*7+j*13) + x)
			}
			m[i][i] += float64(n) + 1 // diagonally dominant => invertible
		}
		inv := invertMatrix(m)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += inv[i][k] * m[k][j]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEqual(s, want, 1e-6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
