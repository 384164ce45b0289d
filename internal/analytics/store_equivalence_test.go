package analytics

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/scipioneer/smart/internal/core"
)

// TestStoreByteIdentical is the cross-application equivalence test for the
// reduction store: for each of the paper's nine applications, with four
// threads and four combine shards, the store must produce the
// EncodeCombinationMap bytes of the serial pipeline (one shard, one thread).
//
// Four threads group partial results differently from one, so every case is
// configured so its reductions are exact and any grouping yields the same
// bits: integer counts (histogram, mutualinfo), integer-valued sums
// (gridagg, kmeans, movingavg), per-grid-cell-constant values (moments —
// every Welford delta is zero), dyadic features with zero initial weights
// and a single iteration (logreg — every gradient term is a multiple of
// 2⁻⁴), or order-preserved holistic appends (movingmedian). kde and savgol
// sum irrational kernel weights and cannot be made exact: their reference
// keeps the four threads' split grouping.
func TestStoreByteIdentical(t *testing.T) {
	const n = 6000
	vals := synth(n, func(i int) float64 { return float64((i*37)%200)/10 - 10 })
	ivals := synth(n, func(i int) float64 { return float64((i*37)%200 - 100) })
	cellvals := synth(n, func(i int) float64 { return float64((i/100)%7 - 3) })
	recs := synth(n, func(i int) float64 {
		if i%5 == 4 {
			return float64(i % 2)
		}
		return float64((i*13)%16)/8 - 1
	})

	cases := []struct {
		name    string
		inexact bool
		encode  func(t *testing.T, a core.SchedArgs) []byte
	}{
		{"histogram", false, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize = 1
			return runAndEncode[int64](t, NewHistogram(-10, 10, 64), a, vals, 64)
		}},
		{"gridagg", false, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize = 1
			return runAndEncode[float64](t, NewGridAgg(100, 0), a, ivals, 60)
		}},
		{"moments", false, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize = 1
			return runAndEncode[float64](t, NewMoments(100, 0), a, cellvals, 60)
		}},
		{"mutualinfo", false, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize = 2
			return runAndEncode[int64](t, NewMutualInfo(-10, 10, 16, -10, 10, 16), a, vals, 0)
		}},
		{"logreg", false, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize, a.NumIters = 5, 1
			return runAndEncode[float64](t, NewLogReg(4, 0.1), a, recs, 0)
		}},
		{"kmeans", false, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize, a.NumIters, a.Extra = 4, 3, initCentroidsTest(4, 4)
			return runAndEncode[[]float64](t, NewKMeans(4, 4), a, ivals, 0)
		}},
		{"movingavg", false, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize = 1
			return runAndEncode[float64](t, NewMovingAverage(25, n, 0, false), a, ivals, n)
		}},
		{"movingmedian", false, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize = 1
			return runAndEncode[float64](t, NewMovingMedian(25, n, 0, false), a, vals, n)
		}},
		{"kde", true, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize = 1
			return runAndEncode[float64](t, NewKernelDensity(25, n, 0, false, 1.5), a, vals, n)
		}},
		{"savgol", true, func(t *testing.T, a core.SchedArgs) []byte {
			a.ChunkSize = 1
			return runAndEncode[float64](t, NewSavitzkyGolay(25, 2, n, 0, false), a, vals, n)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refThreads := 1
			if tc.inexact {
				refThreads = 4
			}
			ref := tc.encode(t, core.SchedArgs{NumThreads: refThreads, CombineShards: 1})
			if len(ref) <= 4 {
				t.Fatal("reference combination map is empty — the case tests nothing")
			}
			if got := tc.encode(t, core.SchedArgs{NumThreads: 4}); !bytes.Equal(got, ref) {
				t.Errorf("encoding differs from the serial pipeline (%d vs %d bytes)", len(got), len(ref))
			}
		})
	}
}

// TestCheckpointStoreEncodePath pins the store-backed checkpoint encode: a
// scheduler checkpointing right after a Run (store in sync — the encode reads
// the sharded store) and one checkpointing after a restore (store stale — the
// encode reads the flat map) must both write the bytes the serial pipeline
// (one thread, one shard) checkpoints.
func TestCheckpointStoreEncodePath(t *testing.T) {
	const n = 4000
	vals := synth(n, func(i int) float64 { return float64((i*37)%200)/10 - 10 })
	// write checkpoints s into a fresh file and returns its path and bytes.
	write := func(s *core.Scheduler[float64, int64]) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "run.ck")
		if err := s.WriteCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, b
	}
	run := func(args core.SchedArgs) *core.Scheduler[float64, int64] {
		s := core.MustNewScheduler[float64, int64](NewHistogram(-10, 10, 64), args)
		if err := s.Run(vals, make([]int64, 64)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	_, ref := write(run(core.SchedArgs{NumThreads: 1, ChunkSize: 1, CombineShards: 1}))
	sharded := core.SchedArgs{NumThreads: 4, ChunkSize: 1}
	path, got := write(run(sharded))
	if !bytes.Equal(got, ref) {
		t.Fatal("store-backed checkpoint differs from the serial pipeline's")
	}
	// Restore marks the store stale; the next write must read the flat map
	// and still produce the same bytes.
	r := core.MustNewScheduler[float64, int64](NewHistogram(-10, 10, 64), sharded)
	if err := r.ReadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, got := write(r); !bytes.Equal(got, ref) {
		t.Fatal("flat-map checkpoint differs from the serial pipeline's")
	}
}

// TestFixedSizeObjContracts pins the core.FixedSizeObj contract for every
// shipped opt-in: NewSlab returns independent copies of its receiver, so a
// factory's non-zero state reaches every slab object.
func TestFixedSizeObjContracts(t *testing.T) {
	protos := map[string]core.FixedSizeObj{
		"CountObj":    &CountObj{Count: 7},
		"SumCountObj": &SumCountObj{Sum: 1.5, Count: 3, Expected: 25},
		"WeightedObj": &WeightedObj{WSum: 2.25, Weight: 0.5, Count: 2, Expected: 9},
		"MomentsObj":  &MomentsObj{N: 4, Mean: 1.25, M2: 2, M3: -1, M4: 0.5},
	}
	for name, proto := range protos {
		t.Run(name, func(t *testing.T) {
			want, err := proto.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			slab := proto.NewSlab(8)
			if len(slab) != 8 {
				t.Fatalf("NewSlab returned %d objects", len(slab))
			}
			for i, obj := range slab {
				got, err := obj.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("slab object %d differs from its prototype", i)
				}
			}
			// Overwriting one slab object must leave its neighbours and the
			// prototype alone.
			zero := zeroOf(proto)
			zb, _ := zero.MarshalBinary()
			if err := slab[0].UnmarshalBinary(zb); err != nil {
				t.Fatal(err)
			}
			for _, obj := range []core.RedObj{proto, slab[1], slab[7]} {
				if got, _ := obj.MarshalBinary(); !bytes.Equal(got, want) {
					t.Fatal("slab objects share state")
				}
			}
		})
	}
}
