package core

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"github.com/scipioneer/smart/internal/mpi"
)

func TestMergeCombinationMap(t *testing.T) {
	app := bucketApp{width: 10}
	a := MustNewScheduler[int, int64](app, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	b := MustNewScheduler[int, int64](app, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := a.Run(histInput(100), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(histInput(100), nil); err != nil {
		t.Fatal(err)
	}
	a.MergeCombinationMap(b.CombinationMap())
	var total int64
	for _, obj := range a.CombinationMap() {
		total += obj.(*countObj).n
	}
	if total != 200 {
		t.Fatalf("merged total %d, want 200", total)
	}
}

func TestMergeEncodedCombinationMap(t *testing.T) {
	app := bucketApp{width: 10}
	a := MustNewScheduler[int, int64](app, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	b := MustNewScheduler[int, int64](app, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	a.Run(histInput(50), nil)
	b.Run(histInput(50), nil)
	buf, err := b.EncodeCombinationMap()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MergeEncodedCombinationMap(buf); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, obj := range a.CombinationMap() {
		total += obj.(*countObj).n
	}
	if total != 100 {
		t.Fatalf("merged total %d, want 100", total)
	}
	if err := a.MergeEncodedCombinationMap([]byte("junk")); err == nil {
		t.Error("junk payload accepted")
	}
}

func TestGlobalCombineStandalone(t *testing.T) {
	// Accumulate per-rank state with global combination off, then one
	// GlobalCombine produces the cluster-wide result everywhere.
	const ranks = 3
	comms := mpi.NewWorld(ranks)
	full := histInput(300)
	per := len(full) / ranks
	results := make([][]int64, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer comms[r].Close()
			// Accumulator pattern: a throwaway scheduler reduces each local
			// partition; the accumulator merges the per-partition maps and
			// performs the one global combination at the end.
			step := MustNewScheduler[int, int64](bucketApp{width: 10},
				SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
			acc := MustNewScheduler[int, int64](bucketApp{width: 10},
				SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1, Comm: comms[r]})
			half := per / 2
			for _, part := range [][]int{full[r*per : r*per+half], full[r*per+half : (r+1)*per]} {
				step.ResetCombinationMap()
				if err := step.Run(part, nil); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				acc.MergeCombinationMap(step.CombinationMap())
			}
			out := make([]int64, 10)
			if err := acc.GlobalCombine(out); err != nil {
				t.Errorf("rank %d combine: %v", r, err)
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
	for r := range results {
		for b := range want {
			if results[r][b] != want[b] {
				t.Fatalf("rank %d bucket %d = %d, want %d", r, b, results[r][b], want[b])
			}
		}
	}
}

func TestGlobalCombineSingleProcess(t *testing.T) {
	// Without a communicator, GlobalCombine is PostCombine + convert.
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := s.Run(histInput(100), nil); err != nil {
		t.Fatal(err)
	}
	out := make([]int64, 10)
	if err := s.GlobalCombine(out); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range out {
		total += v
	}
	if total != 100 {
		t.Fatalf("total %d", total)
	}

	// A key PostCombine inserts inside GlobalCombine must reach the output
	// and every serialization of the map alike.
	calls := 0
	app := growingApp{bucketApp{width: 10}, &calls}
	args := SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1}
	g := MustNewScheduler[int, int64](app, args)
	g.SetGlobalCombination(false)
	if err := g.Run(histInput(100), make([]int64, 12)); err != nil {
		t.Fatal(err)
	}
	out = make([]int64, 12)
	if err := g.GlobalCombine(out); err != nil {
		t.Fatal(err)
	}
	if out[10] != 1000 || out[11] != 1001 {
		t.Fatalf("keys inserted by PostCombine converted to %d and %d, want 1000 and 1001", out[10], out[11])
	}
	want, err := g.EncodeCombinationMap()
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "grown.ck")
	if err := g.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	restored := MustNewScheduler[int, int64](app, args)
	if err := restored.ReadCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	got, err := restored.EncodeCombinationMap()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("checkpoint round trip differs from EncodeCombinationMap")
	}
}

// growingApp is bucketApp whose PostCombine inserts one new key per call:
// the i-th call (from 0) adds key 10+i holding 1000+i.
type growingApp struct {
	bucketApp
	calls *int
}

func (a growingApp) PostCombine(com CombMap) {
	com[10+*a.calls] = &countObj{n: int64(1000 + *a.calls)}
	*a.calls++
}
