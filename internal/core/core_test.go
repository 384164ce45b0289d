package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/mpi"
)

// countObj is a minimal reduction object: an int64 counter.
type countObj struct{ n int64 }

func (c *countObj) MarshalBinary() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, uint64(c.n)), nil
}
func (c *countObj) AppendBinary(b []byte) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(b, uint64(c.n)), nil
}
func (c *countObj) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("countObj: bad length %d", len(b))
	}
	c.n = int64(binary.LittleEndian.Uint64(b))
	return nil
}

// countObj opts into the arena's fixed-width layout so the core tests
// exercise the slab path end to end.
func (c *countObj) NewSlab(n int) []RedObj {
	backing := make([]countObj, n)
	objs := make([]RedObj, n)
	for i := range backing {
		backing[i] = *c
		objs[i] = &backing[i]
	}
	return objs
}

// bucketApp is an equi-width histogram over int inputs: key = value / width.
type bucketApp struct{ width int }

func (a bucketApp) NewRedObj() RedObj { return &countObj{} }
func (a bucketApp) GenKey(c chunk.Chunk, data []int) int {
	return data[c.Start] / a.width
}
func (a bucketApp) Accumulate(_ int, c chunk.Chunk, _ []int, obj RedObj) { obj.(*countObj).n++ }
func (a bucketApp) Merge(src, dst RedObj)                                { dst.(*countObj).n += src.(*countObj).n }
func (a bucketApp) Convert(obj RedObj, out *int64)                       { *out = obj.(*countObj).n }

// meanObj accumulates a running sum and count.
type meanObj struct {
	sum   float64
	count int64
}

func (m *meanObj) MarshalBinary() ([]byte, error) {
	buf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(m.sum))
	return binary.LittleEndian.AppendUint64(buf, uint64(m.count)), nil
}
func (m *meanObj) UnmarshalBinary(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("meanObj: bad length %d", len(b))
	}
	m.sum = math.Float64frombits(binary.LittleEndian.Uint64(b))
	m.count = int64(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

// winObj is a window accumulator with an early-emission trigger.
type winObj struct {
	meanObj
	target int64
}

func (w *winObj) Trigger() bool { return w.target > 0 && w.count == w.target }

// movingSumApp computes, for every element index i, the sum of elements in
// the window [i-half, i+half] — via gen_keys like the paper's moving average.
type movingSumApp struct {
	half    int
	total   int
	trigger bool
	base    int
}

func (a movingSumApp) NewRedObj() RedObj { return &winObj{} }
func (a movingSumApp) GenKeys(c chunk.Chunk, _ []float64, keys []int) []int {
	center := a.base + c.Start
	lo := max(center-a.half, 0)
	hi := min(center+a.half, a.total-1)
	for k := lo; k <= hi; k++ {
		keys = append(keys, k)
	}
	return keys
}
func (a movingSumApp) Accumulate(_ int, c chunk.Chunk, data []float64, obj RedObj) {
	w := obj.(*winObj)
	w.sum += data[c.Start]
	w.count++
	if a.trigger {
		// Full windows have 2*half+1 contributions; truncated boundary
		// windows fewer — they can never trigger and flow to combination.
		w.target = int64(2*a.half + 1)
	}
}
func (a movingSumApp) Merge(src, dst RedObj) {
	s, d := src.(*winObj), dst.(*winObj)
	d.sum += s.sum
	d.count += s.count
}
func (a movingSumApp) Convert(obj RedObj, out *float64) { *out = obj.(*winObj).sum }

// kmeans1D is a one-dimensional k-means used to exercise the iterative path:
// extra data carries initial centroids, post_combine recomputes them. Like
// analytics.KMeans it caches the centroids in both hooks, which is where
// GenKey reads them.
type kmeans1D struct {
	k         int
	centroids []float64
}

type clusterObj struct {
	centroid float64
	sum      float64
	count    int64
}

func (c *clusterObj) MarshalBinary() ([]byte, error) {
	buf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(c.centroid))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.sum))
	return binary.LittleEndian.AppendUint64(buf, uint64(c.count)), nil
}
func (c *clusterObj) UnmarshalBinary(b []byte) error {
	if len(b) != 24 {
		return fmt.Errorf("clusterObj: bad length %d", len(b))
	}
	c.centroid = math.Float64frombits(binary.LittleEndian.Uint64(b))
	c.sum = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	c.count = int64(binary.LittleEndian.Uint64(b[16:]))
	return nil
}

func (a *kmeans1D) NewRedObj() RedObj { return &clusterObj{} }
func (a *kmeans1D) GenKey(c chunk.Chunk, data []float64) int {
	x := data[c.Start]
	best, bestD := 0, math.Inf(1)
	for k, centroid := range a.centroids {
		if d := math.Abs(x - centroid); d < bestD {
			best, bestD = k, d
		}
	}
	return best
}
func (a *kmeans1D) Accumulate(_ int, c chunk.Chunk, data []float64, obj RedObj) {
	cl := obj.(*clusterObj)
	cl.sum += data[c.Start]
	cl.count++
}
func (a *kmeans1D) Merge(src, dst RedObj) {
	s, d := src.(*clusterObj), dst.(*clusterObj)
	d.sum += s.sum
	d.count += s.count
}
func (a *kmeans1D) ProcessExtraData(extra any, com CombMap) {
	if len(com) == 0 { // not yet initialized (first run)
		for i, c := range extra.([]float64) {
			com[i] = &clusterObj{centroid: c}
		}
	}
	a.cache(com)
}
func (a *kmeans1D) PostCombine(com CombMap) {
	for _, obj := range com {
		cl := obj.(*clusterObj)
		if cl.count > 0 {
			cl.centroid = cl.sum / float64(cl.count)
		}
		cl.sum, cl.count = 0, 0
	}
	a.cache(com)
}
func (a *kmeans1D) cache(com CombMap) {
	a.centroids = a.centroids[:0]
	for k := 0; k < a.k; k++ {
		a.centroids = append(a.centroids, com[k].(*clusterObj).centroid)
	}
}
func (a *kmeans1D) Convert(obj RedObj, out *float64) { *out = obj.(*clusterObj).centroid }

func histInput(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = (i * 7) % 100
	}
	return in
}

func TestRunHistogramSingleThread(t *testing.T) {
	in := histInput(1000)
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	out := make([]int64, 10)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range out {
		total += c
	}
	if total != 1000 {
		t.Fatalf("histogram total %d, want 1000", total)
	}
	// Sequential reference.
	want := make([]int64, 10)
	for _, v := range in {
		want[v/10]++
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestRunThreadCountInvariance(t *testing.T) {
	in := histInput(997) // prime length to exercise ragged splits
	ref := make([]int64, 10)
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := s.Run(in, ref); err != nil {
		t.Fatal(err)
	}
	for _, nt := range []int{2, 3, 4, 8} {
		out := make([]int64, 10)
		s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: nt, ChunkSize: 1, NumIters: 1})
		if err := s.Run(in, out); err != nil {
			t.Fatalf("nt=%d: %v", nt, err)
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Errorf("nt=%d bucket %d = %d, want %d", nt, i, out[i], ref[i])
			}
		}
	}

	// Runs without a reset accumulate into the combination map: two Runs
	// over in must equal one Run over in twice, at every thread count.
	twice := append(append([]int(nil), in...), in...)
	for _, nt := range []int{1, 2, 4} {
		args := SchedArgs{NumThreads: nt, ChunkSize: 1, NumIters: 1}
		want := make([]int64, 10)
		if err := MustNewScheduler[int, int64](bucketApp{width: 10}, args).Run(twice, want); err != nil {
			t.Fatal(err)
		}
		s := MustNewScheduler[int, int64](bucketApp{width: 10}, args)
		out := make([]int64, 10)
		for run := 0; run < 2; run++ {
			if err := s.Run(in, out); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(out, want) {
			t.Errorf("nt=%d: two runs give %v, one run over the input twice %v", nt, out, want)
		}
	}
}

// TestStealingPartsExceedUnits gives eight threads three unit chunks: the
// surplus threads get empty splits and every element is still counted once.
func TestStealingPartsExceedUnits(t *testing.T) {
	in := histInput(3)
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 8, ChunkSize: 1})
	out := make([]int64, 10)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range out {
		total += v
	}
	if total != 3 {
		t.Fatalf("counted %d elements, want 3", total)
	}
}

func TestRunBlockSizeInvariance(t *testing.T) {
	in := histInput(512)
	for _, bs := range []int{0, 64, 100, 511, 512, 1024} {
		out := make([]int64, 10)
		s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 3, ChunkSize: 1, NumIters: 1, BlockSize: bs})
		if err := s.Run(in, out); err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		var total int64
		for _, c := range out {
			total += c
		}
		if total != 512 {
			t.Errorf("bs=%d total %d", bs, total)
		}
	}
}

func TestRunSequentialMatchesParallel(t *testing.T) {
	in := histInput(500)
	par := make([]int64, 10)
	seq := make([]int64, 10)
	sp := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 4, ChunkSize: 1, NumIters: 1})
	ss := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 4, ChunkSize: 1, NumIters: 1, Sequential: true})
	if err := sp.Run(in, par); err != nil {
		t.Fatal(err)
	}
	if err := ss.Run(in, seq); err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if par[i] != seq[i] {
			t.Errorf("bucket %d: parallel %d sequential %d", i, par[i], seq[i])
		}
	}
	// Sequential mode must still record per-split times.
	st := ss.Stats()
	if len(st.SplitTimes) != 4 {
		t.Fatalf("split times %d, want 4", len(st.SplitTimes))
	}
}

func TestKMeansIterativeConverges(t *testing.T) {
	// Two well-separated 1-D clusters around 0 and 100.
	var in []float64
	for i := 0; i < 200; i++ {
		in = append(in, float64(i%10))        // near 0..9
		in = append(in, 100+float64(i%10)/10) // near 100
	}
	app := &kmeans1D{k: 2}
	s := MustNewScheduler[float64, float64](app, SchedArgs{
		NumThreads: 2, ChunkSize: 1, NumIters: 10, Extra: []float64{10, 60},
	})
	out := make([]float64, 2)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	lo, hi := out[0], out[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.Abs(lo-4.5) > 0.01 || math.Abs(hi-100.45) > 0.01 {
		t.Fatalf("centroids %v, want ~[4.5 100.45]", out)
	}
}

func TestRun2MovingSumMatchesNaive(t *testing.T) {
	const n, half = 200, 3
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i%13) - 6
	}
	app := movingSumApp{half: half, total: n}
	s := MustNewScheduler[float64, float64](app, SchedArgs{NumThreads: 4, ChunkSize: 1, NumIters: 1})
	out := make([]float64, n)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		for j := max(i-half, 0); j <= min(i+half, n-1); j++ {
			want += in[j]
		}
		if math.Abs(out[i]-want) > 1e-9 {
			t.Fatalf("moving sum at %d = %v, want %v", i, out[i], want)
		}
	}
}

// keylessApp implements Analytics but neither key generator.
type keylessApp struct{}

func (keylessApp) NewRedObj() RedObj                          { return &countObj{} }
func (keylessApp) Accumulate(int, chunk.Chunk, []int, RedObj) {}
func (keylessApp) Merge(src, dst RedObj)                      {}

// keysOnlyApp is keylessApp with GenKeys: a valid gen_keys app.
type keysOnlyApp struct{ keylessApp }

func (keysOnlyApp) GenKeys(_ chunk.Chunk, _ []int, keys []int) []int { return append(keys, 0) }

// twoKeyersApp implements both GenKey (through bucketApp) and GenKeys.
type twoKeyersApp struct{ bucketApp }

func (twoKeyersApp) GenKeys(_ chunk.Chunk, _ []int, keys []int) []int { return append(keys, 0) }

// TestRun2RequiresMultiKeyer checks the key-generator contract: the app's
// own methods choose gen_key or gen_keys, so NewScheduler accepts exactly
// one of them and names both in its error otherwise.
func TestRun2RequiresMultiKeyer(t *testing.T) {
	args := SchedArgs{NumThreads: 1, ChunkSize: 1}
	for _, tc := range []struct {
		name string
		app  Analytics[int, int64]
		ok   bool
	}{
		{"GenKey", bucketApp{width: 10}, true},
		{"GenKeys", keysOnlyApp{}, true},
		{"neither", keylessApp{}, false},
		{"both", twoKeyersApp{bucketApp{width: 10}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewScheduler[int, int64](tc.app, args)
			if tc.ok {
				if err != nil {
					t.Fatalf("NewScheduler rejected a valid app: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("NewScheduler accepted the app")
			}
			if msg := err.Error(); !strings.Contains(msg, "GenKey ") || !strings.Contains(msg, "GenKeys") {
				t.Fatalf("error %q does not name GenKey and GenKeys", msg)
			}
		})
	}
}

func TestEarlyEmissionSameResultLowerFootprint(t *testing.T) {
	const n, half = 4000, 5
	in := make([]float64, n)
	for i := range in {
		in[i] = math.Sin(float64(i) / 7)
	}
	run := func(trigger bool) ([]float64, *Stats) {
		app := movingSumApp{half: half, total: n, trigger: trigger}
		s := MustNewScheduler[float64, float64](app, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
		out := make([]float64, n)
		if err := s.Run(in, out); err != nil {
			t.Fatal(err)
		}
		return out, s.Stats()
	}
	plain, plainStats := run(false)
	trig, trigStats := run(true)
	for i := range plain {
		if math.Abs(plain[i]-trig[i]) > 1e-9 {
			t.Fatalf("early emission changed result at %d: %v vs %v", i, plain[i], trig[i])
		}
	}
	if trigStats.EmittedEarly == 0 {
		t.Fatal("no early emissions recorded")
	}
	if plainStats.EmittedEarly != 0 {
		t.Fatal("trigger fired while disabled")
	}
	// The optimization's whole point: live objects bounded near the window
	// size rather than the input size.
	if trigStats.MaxLiveRedObjs >= plainStats.MaxLiveRedObjs/10 {
		t.Fatalf("footprint not reduced: trigger %d vs plain %d live objects",
			trigStats.MaxLiveRedObjs, plainStats.MaxLiveRedObjs)
	}
}

func TestGlobalCombinationAcrossRanks(t *testing.T) {
	const ranks = 4
	comms := mpi.NewWorld(ranks)
	full := histInput(1200)
	per := len(full) / ranks
	results := make([][]int64, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[r].Close()
			s := MustNewScheduler[int, int64](bucketApp{width: 10},
				SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1, Comm: comms[r]})
			out := make([]int64, 10)
			if err := s.Run(full[r*per:(r+1)*per], out); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = out
		}()
	}
	wg.Wait()
	want := make([]int64, 10)
	for _, v := range full {
		want[v/10]++
	}
	for r := 0; r < ranks; r++ {
		for i := range want {
			if results[r][i] != want[i] {
				t.Errorf("rank %d bucket %d = %d, want %d", r, i, results[r][i], want[i])
			}
		}
	}
}

func TestGlobalCombinationDisabled(t *testing.T) {
	const ranks = 2
	comms := mpi.NewWorld(ranks)
	full := histInput(200)
	per := len(full) / ranks
	results := make([][]int64, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[r].Close()
			s := MustNewScheduler[int, int64](bucketApp{width: 10},
				SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1, Comm: comms[r]})
			s.SetGlobalCombination(false)
			out := make([]int64, 10)
			if err := s.Run(full[r*per:(r+1)*per], out); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = out
		}()
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		want := make([]int64, 10)
		for _, v := range full[r*per : (r+1)*per] {
			want[v/10]++
		}
		for i := range want {
			if results[r][i] != want[i] {
				t.Errorf("rank %d local bucket %d = %d, want %d", r, i, results[r][i], want[i])
			}
		}
	}
}

func TestDistributedKMeansMatchesSingleNode(t *testing.T) {
	var in []float64
	for i := 0; i < 400; i++ {
		in = append(in, float64(i%17), 50+float64(i%11))
	}
	single := MustNewScheduler[float64, float64](&kmeans1D{k: 2},
		SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 5, Extra: []float64{5, 40}})
	wantOut := make([]float64, 2)
	if err := single.Run(in, wantOut); err != nil {
		t.Fatal(err)
	}

	const ranks = 4
	comms := mpi.NewWorld(ranks)
	per := len(in) / ranks
	results := make([][]float64, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[r].Close()
			s := MustNewScheduler[float64, float64](&kmeans1D{k: 2},
				SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 5, Extra: []float64{5, 40}, Comm: comms[r]})
			out := make([]float64, 2)
			if err := s.Run(in[r*per:(r+1)*per], out); err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = out
		}()
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		for i := range wantOut {
			if math.Abs(results[r][i]-wantOut[i]) > 1e-9 {
				t.Errorf("rank %d centroid %d = %v, want %v", r, i, results[r][i], wantOut[i])
			}
		}
	}
}

func TestOutBaseWindowing(t *testing.T) {
	in := histInput(100)
	// Output window covers buckets [3, 7); other keys must be skipped.
	s := MustNewScheduler[int, int64](bucketApp{width: 10},
		SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1, OutBase: 3})
	out := make([]int64, 4)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 10)
	for _, v := range in {
		want[v/10]++
	}
	for i := 0; i < 4; i++ {
		if out[i] != want[3+i] {
			t.Errorf("windowed bucket %d = %d, want %d", i, out[i], want[3+i])
		}
	}
}

func TestMemoryOOM(t *testing.T) {
	node := memmodel.NewNode(4 << 10) // tiny virtual node
	in := make([]float64, 20000)
	app := movingSumApp{half: 2, total: len(in)}
	s := MustNewScheduler[float64, float64](app, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 1, Mem: node, RedObjBytes: 48,
	})
	err := s.Run(in, make([]float64, len(in)))
	var oom *memmodel.OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want OOM error, got %v", err)
	}
	// With the trigger enabled the same workload must fit.
	node2 := memmodel.NewNode(4 << 10)
	app2 := movingSumApp{half: 2, total: len(in), trigger: true}
	s2 := MustNewScheduler[float64, float64](app2, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 1, Mem: node2, RedObjBytes: 48,
	})
	if err := s2.Run(in, make([]float64, len(in))); err != nil {
		t.Fatalf("triggered run OOMed: %v", err)
	}
}

func TestSpaceSharingMatchesTimeSharing(t *testing.T) {
	in := histInput(600)
	ts := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
	want := make([]int64, 10)
	if err := ts.Run(in, want); err != nil {
		t.Fatal(err)
	}

	ss := MustNewScheduler[int, int64](bucketApp{width: 10},
		SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1, BufferCells: 2})
	const steps = 5
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // simulation task
		defer wg.Done()
		for i := 0; i < steps; i++ {
			if err := ss.Feed(in); err != nil {
				t.Errorf("feed %d: %v", i, err)
				return
			}
		}
		ss.CloseFeed()
	}()
	// analytics task: one fresh result per time-step, as in Listing 1 where
	// a scheduler is constructed per step.
	got := make([]int64, 10)
	steps2 := 0
	for {
		ss.ResetCombinationMap()
		err := ss.RunShared(got)
		if err == ErrFeedClosed {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		steps2++
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d bucket %d = %d, want %d", steps2, i, got[i], want[i])
			}
		}
	}
	wg.Wait()
	if steps2 != steps {
		t.Fatalf("consumed %d steps, want %d", steps2, steps)
	}
	produced, consumed, _ := ss.BufferStats()
	if produced != steps || consumed != steps {
		t.Fatalf("buffer stats %d/%d", produced, consumed)
	}
}

func TestFeedCopiesData(t *testing.T) {
	// The circular buffer must snapshot the fed partition: mutating the
	// source afterwards (as the simulation's next time-step does) must not
	// change the analytics result.
	in := histInput(100)
	s := MustNewScheduler[int, int64](bucketApp{width: 10},
		SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1, BufferCells: 2})
	if err := s.Feed(in); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 10)
	for _, v := range in {
		want[v/10]++
	}
	for i := range in {
		in[i] = 0 // simulation overwrites its buffer
	}
	got := make([]int64, 10)
	if err := s.RunShared(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (fed data not snapshotted)", i, got[i], want[i])
		}
	}
}

func TestFeedMemAccounting(t *testing.T) {
	node := memmodel.NewNode(1 << 20)
	s := MustNewScheduler[int, int64](bucketApp{width: 10},
		SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1, Mem: node, BufferCells: 2})
	if err := s.Feed(make([]int, 1000)); err != nil {
		t.Fatal(err)
	}
	if node.Used() < 8000 {
		t.Fatalf("buffer cell not accounted: used %d", node.Used())
	}
	if err := s.RunShared(nil); err != nil {
		t.Fatal(err)
	}
	if node.Used() != 0 {
		t.Fatalf("cell not released after consumption: %d", node.Used())
	}
	// A feed that cannot fit must fail with OOM.
	tiny := memmodel.NewNode(100)
	s2 := MustNewScheduler[int, int64](bucketApp{width: 10},
		SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1, Mem: tiny, BufferCells: 2})
	var oom *memmodel.OOMError
	if err := s2.Feed(make([]int, 1000)); !errors.As(err, &oom) {
		t.Fatalf("want OOM on oversized feed, got %v", err)
	}
}

func TestInvalidSchedArgs(t *testing.T) {
	for _, args := range []SchedArgs{
		{NumThreads: 0, ChunkSize: 1, NumIters: 1},
		{NumThreads: 1, ChunkSize: 0, NumIters: 1},
		{NumThreads: 1, ChunkSize: 1, NumIters: -1},
	} {
		if _, err := NewScheduler[int, int64](bucketApp{width: 10}, args); err == nil {
			t.Errorf("args %+v accepted", args)
		}
	}
	// NumIters 0 defaults to 1.
	if _, err := NewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1}); err != nil {
		t.Errorf("defaulted args rejected: %v", err)
	}
}

func TestMapCodecRoundtrip(t *testing.T) {
	f := func(keys []int16, vals []int64) bool {
		st := newTestStore(3)
		want := make(map[int]int64)
		for i, k := range keys {
			if i >= len(vals) {
				break
			}
			st.insert(int(k), &countObj{n: vals[i]})
			want[int(k)] = vals[i]
		}
		buf, err := appendStore(nil, st)
		if err != nil {
			return false
		}
		// Decode into a different shard count: the frame does not carry it.
		got, err := decodeStore(buf, 5, func() RedObj { return &countObj{} })
		if err != nil || got.size() != len(want) {
			return false
		}
		for k, n := range want {
			g, ok := got.lookup(k)
			if !ok || g.(*countObj).n != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapCodecErrors(t *testing.T) {
	factory := func() RedObj { return &countObj{} }
	if _, err := decodeStore(nil, 1, factory); err == nil {
		t.Error("decodeStore accepted empty buffer")
	}
	if _, err := decodeStore([]byte{2, 0, 0, 0}, 1, factory); err == nil {
		t.Error("decodeStore accepted truncated entries")
	}
	st := newTestStore(1)
	st.insert(1, &countObj{n: 5})
	buf := encodeStore(t, st)
	if _, err := decodeStore(append(buf, 0xFF), 1, factory); err == nil {
		t.Error("decodeStore accepted trailing bytes")
	}
}

func TestStatsPopulated(t *testing.T) {
	in := histInput(5000)
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
	if err := s.Run(in, make([]int64, 10)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ChunksProcessed != 5000 {
		t.Errorf("chunks %d, want 5000", st.ChunksProcessed)
	}
	if st.MaxLiveRedObjs == 0 || st.MaxLiveRedObjs > 20 {
		t.Errorf("live objects %d, want within (0,20]", st.MaxLiveRedObjs)
	}
	if len(st.SplitTimes) != 2 {
		t.Errorf("split times %d entries", len(st.SplitTimes))
	}
}

func TestCombinationMapAccessAndReset(t *testing.T) {
	in := histInput(100)
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := s.Run(in, nil); err != nil {
		t.Fatal(err)
	}
	if len(s.CombinationMap()) == 0 {
		t.Fatal("combination map empty after run")
	}
	s.ResetCombinationMap()
	if len(s.CombinationMap()) != 0 {
		t.Fatal("combination map not cleared")
	}
}

func TestRepeatedRunsWithReset(t *testing.T) {
	// Non-iterative applications process each time-step with a fresh
	// combination map (Listing 1 constructs a scheduler per step); the
	// cheap equivalent is ResetCombinationMap between Runs.
	in := histInput(100)
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	for step := 0; step < 3; step++ {
		s.ResetCombinationMap()
		out := make([]int64, 10)
		if err := s.Run(in, out); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, v := range out {
			total += v
		}
		if total != 100 {
			t.Fatalf("step %d total %d, want 100", step, total)
		}
	}
}

func TestRepeatedRunsCarryIterativeState(t *testing.T) {
	// Iterative applications whose PostCombine resets accumulators carry
	// state across Runs without a reset: k-means centroids track across
	// time-steps.
	var in []float64
	for i := 0; i < 200; i++ {
		in = append(in, float64(i%10), 100+float64(i%10)/10)
	}
	app := &kmeans1D{k: 2}
	// One scheduler, two runs of 5 iterations each, must converge like a
	// single run of 10 iterations.
	s2 := MustNewScheduler[float64, float64](app, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 5, Extra: []float64{10, 60},
	})
	out := make([]float64, 2)
	if err := s2.Run(in, out); err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(in, out); err != nil {
		t.Fatal(err)
	}

	s10 := MustNewScheduler[float64, float64](app, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 10, Extra: []float64{10, 60},
	})
	want := make([]float64, 2)
	if err := s10.Run(in, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Fatalf("centroid %d: two 5-iter runs %v vs one 10-iter run %v", i, out[i], want[i])
		}
	}
}

func TestChunkSizeVectors(t *testing.T) {
	// Feature vectors of length 4: a single key, accumulate sums whole
	// chunks. Verifies chunk positional information.
	in := make([]float64, 400)
	for i := range in {
		in[i] = float64(i)
	}
	app := vecSumApp{}
	s := MustNewScheduler[float64, float64](app, SchedArgs{NumThreads: 2, ChunkSize: 4, NumIters: 1})
	out := make([]float64, 1)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, v := range in {
		want += v
	}
	if math.Abs(out[0]-want) > 1e-6 {
		t.Fatalf("vector sum %v, want %v", out[0], want)
	}
}

// vecSumApp sums whole chunks under a single key.
type vecSumApp struct{}

func (vecSumApp) NewRedObj() RedObj                 { return &meanObj{} }
func (vecSumApp) GenKey(chunk.Chunk, []float64) int { return 0 }
func (vecSumApp) Accumulate(_ int, c chunk.Chunk, data []float64, obj RedObj) {
	m := obj.(*meanObj)
	for i := c.Start; i < c.End(); i++ {
		m.sum += data[i]
	}
	m.count++
}
func (vecSumApp) Merge(src, dst RedObj) {
	s, d := src.(*meanObj), dst.(*meanObj)
	d.sum += s.sum
	d.count += s.count
}
func (vecSumApp) Convert(obj RedObj, out *float64) { *out = obj.(*meanObj).sum }
