package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointRestoreResumesTraining(t *testing.T) {
	var in []float64
	for i := 0; i < 200; i++ {
		in = append(in, float64(i%10), 100+float64(i%10)/10)
	}
	dir := t.TempDir()
	ck := filepath.Join(dir, "kmeans.ck")

	// Run 5 iterations, checkpoint, then resume in a fresh scheduler for 5
	// more; must equal an uninterrupted 10-iteration run.
	first := MustNewScheduler[float64, float64](&kmeans1D{k: 2}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 5, Extra: []float64{10, 60},
	})
	if err := first.Run(in, nil); err != nil {
		t.Fatal(err)
	}
	if err := first.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}

	resumed := MustNewScheduler[float64, float64](&kmeans1D{k: 2}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 5, Extra: []float64{10, 60},
	})
	if err := resumed.ReadCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 2)
	if err := resumed.Run(in, got); err != nil {
		t.Fatal(err)
	}

	reference := MustNewScheduler[float64, float64](&kmeans1D{k: 2}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 10, Extra: []float64{10, 60},
	})
	want := make([]float64, 2)
	if err := reference.Run(in, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("centroid %d: resumed %v, uninterrupted %v", i, got[i], want[i])
		}
	}
}

func TestCheckpointRoundTripsByteIdentically(t *testing.T) {
	dir := t.TempDir()
	ck1 := filepath.Join(dir, "first.ck")
	ck2 := filepath.Join(dir, "second.ck")

	s := MustNewScheduler[float64, float64](&kmeans1D{k: 2}, SchedArgs{
		NumThreads: 2, ChunkSize: 1, NumIters: 3, Extra: []float64{10, 60},
	})
	var in []float64
	for i := 0; i < 300; i++ {
		in = append(in, float64(i%10), 100+float64(i%10)/10)
	}
	if err := s.Run(in, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(ck1); err != nil {
		t.Fatal(err)
	}

	restored := MustNewScheduler[float64, float64](&kmeans1D{k: 2}, SchedArgs{
		NumThreads: 2, ChunkSize: 1, NumIters: 3, Extra: []float64{10, 60},
	})
	if err := restored.ReadCheckpoint(ck1); err != nil {
		t.Fatal(err)
	}
	if err := restored.WriteCheckpoint(ck2); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(ck1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ck2)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("restored checkpoint re-encodes differently: %d vs %d bytes", len(a), len(b))
	}
}

func TestCheckpointRestoreOverwritesDivergedState(t *testing.T) {
	var in []float64
	for i := 0; i < 200; i++ {
		in = append(in, float64(i%10), 100+float64(i%10)/10)
	}
	dir := t.TempDir()
	ck := filepath.Join(dir, "kmeans.ck")

	// Run 5 iterations and checkpoint that state.
	s := MustNewScheduler[float64, float64](&kmeans1D{k: 2}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 5, Extra: []float64{10, 60},
	})
	if err := s.Run(in, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}

	// A second scheduler first diverges (5 iterations of its own), then
	// restores the checkpoint mid-life. The restore must fully replace the
	// diverged combination map and reset run statistics — no double-counted
	// accumulators, no stale residue — so 5 post-restore iterations must
	// equal an uninterrupted 10-iteration run.
	cont := MustNewScheduler[float64, float64](&kmeans1D{k: 2}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 5, Extra: []float64{30, 90},
	})
	if err := cont.Run(in, nil); err != nil {
		t.Fatal(err)
	}
	if err := cont.ReadCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if cont.Stats().ChunksProcessed != 0 {
		t.Fatalf("restore left stale stats: %d chunks", cont.Stats().ChunksProcessed)
	}
	got := make([]float64, 2)
	if err := cont.Run(in, got); err != nil {
		t.Fatal(err)
	}

	reference := MustNewScheduler[float64, float64](&kmeans1D{k: 2}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 10, Extra: []float64{10, 60},
	})
	want := make([]float64, 2)
	if err := reference.Run(in, want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("centroid %d: restored-after-divergence %v, uninterrupted %v", i, got[i], want[i])
		}
	}
}

func TestCheckpointRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := s.ReadCheckpoint(path); err == nil {
		t.Fatal("foreign file accepted")
	}
	if err := s.ReadCheckpoint(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCheckpointNoTornFiles(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "state.ck")
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	if err := s.Run(histInput(100), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	// The temporary staging file must not survive a successful publish.
	if _, err := os.Stat(ck + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("staging file left behind: %v", err)
	}
}
