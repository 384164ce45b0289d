package analytics

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/scipioneer/smart/internal/codec"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/mpi"
)

// runAndEncode builds a scheduler for app with the given shard count, runs
// it over in, and returns the encoded combination map.
func runAndEncode[Out any](t *testing.T, app core.Analytics[float64, Out],
	a core.SchedArgs, in []float64, outLen int) []byte {

	t.Helper()
	s, err := core.NewScheduler[float64, Out](app, a)
	if err != nil {
		t.Fatal(err)
	}
	var out []Out
	if outLen > 0 {
		out = make([]Out, outLen)
	}
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	buf, err := s.EncodeCombinationMap()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestShardedCombineByteIdentical is the cross-application property test for
// the sharded combination pipeline: for each of the paper's nine
// applications, plus the 2-D moving average and matrix multiplication,
// running with one combine shard (the serial reference) and with the default
// shard-parallel pipeline must produce byte-identical EncodeCombinationMap
// output. Every case goes through plain Run: the app's GenKey or GenKeys
// selects the key path.
func TestShardedCombineByteIdentical(t *testing.T) {
	const n = 6000
	vals := synth(n, func(i int) float64 { return float64((i*37)%200)/10 - 10 })
	// Labeled records for logistic regression: 4 features + a 0/1 label.
	recs := synth(n, func(i int) float64 {
		if i%5 == 4 {
			return float64(i % 2)
		}
		return float64((i*13)%100)/50 - 1
	})

	cases := []struct {
		name   string
		encode func(t *testing.T, shards int) []byte
	}{
		{"histogram", func(t *testing.T, shards int) []byte {
			return runAndEncode[int64](t, NewHistogram(-10, 10, 64),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1, CombineShards: shards}, vals, 64)
		}},
		{"gridagg", func(t *testing.T, shards int) []byte {
			return runAndEncode[float64](t, NewGridAgg(100, 0),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1, CombineShards: shards}, vals, 60)
		}},
		{"moments", func(t *testing.T, shards int) []byte {
			return runAndEncode[float64](t, NewMoments(100, 0),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1, CombineShards: shards}, vals, 60)
		}},
		{"mutualinfo", func(t *testing.T, shards int) []byte {
			return runAndEncode[int64](t, NewMutualInfo(-10, 10, 16, -10, 10, 16),
				core.SchedArgs{NumThreads: 4, ChunkSize: 2, CombineShards: shards}, vals, 0)
		}},
		{"logreg", func(t *testing.T, shards int) []byte {
			return runAndEncode[float64](t, NewLogReg(4, 0.1),
				core.SchedArgs{NumThreads: 4, ChunkSize: 5, NumIters: 3, CombineShards: shards}, recs, 0)
		}},
		{"kmeans", func(t *testing.T, shards int) []byte {
			return runAndEncode[[]float64](t, NewKMeans(4, 4),
				core.SchedArgs{NumThreads: 4, ChunkSize: 4, NumIters: 3, CombineShards: shards,
					Extra: initCentroidsTest(4, 4)}, vals, 0)
		}},
		{"movingavg", func(t *testing.T, shards int) []byte {
			return runAndEncode[float64](t, NewMovingAverage(25, n, 0, false),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1, CombineShards: shards}, vals, n)
		}},
		{"movingmedian", func(t *testing.T, shards int) []byte {
			return runAndEncode[float64](t, NewMovingMedian(25, n, 0, false),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1, CombineShards: shards}, vals, n)
		}},
		{"kde", func(t *testing.T, shards int) []byte {
			return runAndEncode[float64](t, NewKernelDensity(25, n, 0, false, 1.5),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1, CombineShards: shards}, vals, n)
		}},
		{"savgol", func(t *testing.T, shards int) []byte {
			return runAndEncode[float64](t, NewSavitzkyGolay(25, 2, n, 0, false),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1, CombineShards: shards}, vals, n)
		}},
		{"movingavg2d", func(t *testing.T, shards int) []byte {
			return runAndEncode[float64](t, NewMovingAverage2D(60, 25, 2, false),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1, CombineShards: shards}, vals[:60*25*2], 60*25*2)
		}},
		{"matmul", func(t *testing.T, shards int) []byte {
			const dim = 40
			return runAndEncode[float64](t, NewMatMul(dim, vals[:dim*dim], false),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1, CombineShards: shards}, vals[dim*dim:2*dim*dim], dim*dim)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.encode(t, 1)
			if len(ref) <= 4 {
				t.Fatal("reference combination map is empty — the case tests nothing")
			}
			for _, shards := range []int{0, 3, 8} {
				if got := tc.encode(t, shards); !bytes.Equal(got, ref) {
					t.Errorf("CombineShards=%d: encoding differs from serial reference (%d vs %d bytes)",
						shards, len(got), len(ref))
				}
			}
		})
	}
}

// initCentroidsTest spreads k deterministic centroids across [-1, 1].
func initCentroidsTest(k, dims int) []float64 {
	flat := make([]float64, k*dims)
	for c := 0; c < k; c++ {
		for d := 0; d < dims; d++ {
			flat[c*dims+d] = -1 + 2*float64(c)/float64(k)
		}
	}
	return flat
}

// TestGlobalCombineModesAgree runs a 4-rank histogram through the streamed
// tree with one segment (the serial reference), the default shard count, and
// an odd shard count, and demands identical outputs and identical encoded
// global maps on every rank.
func TestGlobalCombineModesAgree(t *testing.T) {
	const ranks = 4
	const n = 4000
	full := synth(n, func(i int) float64 { return float64((i*31)%200)/10 - 10 })

	run := func(shards int) ([][]int64, [][]byte) {
		comms := mpi.NewWorld(ranks)
		outs := make([][]int64, ranks)
		encs := make([][]byte, ranks)
		per := n / ranks
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer comms[r].Close()
				s, err := core.NewScheduler[float64, int64](NewHistogram(-10, 10, 64), core.SchedArgs{
					NumThreads: 2, ChunkSize: 1, Comm: comms[r], CombineShards: shards,
				})
				if err != nil {
					t.Error(err)
					return
				}
				out := make([]int64, 64)
				if err := s.Run(full[r*per:(r+1)*per], out); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				outs[r] = out
				if encs[r], err = s.EncodeCombinationMap(); err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}()
		}
		wg.Wait()
		return outs, encs
	}

	refOuts, refEncs := run(1)
	for _, shards := range []int{0, 5} {
		outs, encs := run(shards)
		for r := 0; r < ranks; r++ {
			if !bytes.Equal(encs[r], refEncs[0]) {
				t.Errorf("CombineShards=%d: rank %d encoded map differs from rank 0 of the serial reference", shards, r)
			}
			for b := range refOuts[0] {
				if outs[r][b] != refOuts[0][b] {
					t.Errorf("CombineShards=%d: rank %d bucket %d = %d, want %d", shards, r, b, outs[r][b], refOuts[0][b])
				}
			}
		}
	}
}

// TestCheckpointFixturesRoundTrip decodes checkpoints written by the
// pre-shard serializer and re-encodes them bit-for-bit, pinning the wire and
// checkpoint format across the pipeline refactor: a restored scheduler's next
// checkpoint must be byte-identical to the committed fixture. The .ck
// fixtures are the raw SMARTCK1 format; histogram_seed_block.ck2 is the same
// histogram state in the SMARTCK2 block-codec format.
func TestCheckpointFixturesRoundTrip(t *testing.T) {
	cases := []struct {
		fixture string
		load    func() (func(string) error, func(string) error)
	}{
		{"histogram_seed.ck", func() (func(string) error, func(string) error) {
			s := core.MustNewScheduler[float64, int64](NewHistogram(-1, 1, 64),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1})
			return s.ReadCheckpoint, s.WriteCheckpoint
		}},
		{"kmeans_seed.ck", func() (func(string) error, func(string) error) {
			s := core.MustNewScheduler[float64, []float64](NewKMeans(4, 4),
				core.SchedArgs{NumThreads: 4, ChunkSize: 4})
			return s.ReadCheckpoint, s.WriteCheckpoint
		}},
		{"moments_seed.ck", func() (func(string) error, func(string) error) {
			s := core.MustNewScheduler[float64, float64](NewMoments(100, 0),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1})
			return s.ReadCheckpoint, s.WriteCheckpoint
		}},
		{"histogram_seed_block.ck2", func() (func(string) error, func(string) error) {
			s := core.MustNewScheduler[float64, int64](NewHistogram(-1, 1, 64),
				core.SchedArgs{NumThreads: 4, ChunkSize: 1})
			return s.ReadCheckpoint, func(path string) error {
				return s.WriteCheckpointEnc(path, codec.Block)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			src := filepath.Join("testdata", tc.fixture)
			want, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			read, write := tc.load()
			if err := read(src); err != nil {
				t.Fatalf("committed fixture no longer decodes: %v", err)
			}
			dst := filepath.Join(t.TempDir(), "roundtrip.ck")
			if err := write(dst); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(dst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round trip not bit-identical: %d bytes in, %d bytes out", len(want), len(got))
			}
		})
	}
}

// TestAppendBinaryMatchesMarshal pins the core.Appender contract for every
// shipped reduction object: AppendBinary must produce exactly the
// MarshalBinary encoding, appended after any existing prefix.
func TestAppendBinaryMatchesMarshal(t *testing.T) {
	objs := []core.RedObj{
		&CountObj{Count: 42},
		&SumCountObj{Sum: 3.25, Count: 7, Expected: 9},
		&WeightedObj{WSum: -1.5, Weight: 2.25, Count: 3, Expected: 5},
		&ValuesObj{Values: []float64{1, 2.5, -3}, Expected: 4},
		&ClusterObj{Centroid: []float64{0.5, -0.5}, Sum: []float64{1, 2}, Size: 6},
		&GradObj{Weights: []float64{0.1, 0.2}, Grad: []float64{-0.3, 0.4}, Count: 11},
		&MomentsObj{N: 9, Mean: 1.5, M2: 2.5, M3: -0.5, M4: 4.5},
		&TopKObj{K: 3, Items: []Extreme{{Pos: 4, Val: 9.5}, {Pos: 1, Val: 3.25}}},
	}
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	for _, obj := range objs {
		ap, ok := obj.(core.Appender)
		if !ok {
			t.Errorf("%T does not implement core.Appender", obj)
			continue
		}
		want, err := obj.MarshalBinary()
		if err != nil {
			t.Fatalf("%T: %v", obj, err)
		}
		got, err := ap.AppendBinary(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("%T: %v", obj, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Errorf("%T: AppendBinary clobbered the prefix", obj)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%T: AppendBinary != MarshalBinary", obj)
		}
	}
}
