package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scipioneer/smart/internal/chunk"
)

// cancellingApp wraps bucketApp and cancels the run's context on the at-th
// GenKey call across all threads — a mid-run cancel that fires early no
// matter which worker the runtime schedules first.
type cancellingApp struct {
	bucketApp
	at     int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (a *cancellingApp) GenKey(c chunk.Chunk, data []int) int {
	if a.calls.Add(1) == a.at {
		a.cancel()
	}
	return a.bucketApp.GenKey(c, data)
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	err := s.RunContext(ctx, histInput(1000), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if s.Stats().ChunksProcessed != 0 {
		t.Fatalf("processed %d chunks under a pre-cancelled context", s.Stats().ChunksProcessed)
	}
}

// checkCancelMidRun cancels a run on nt threads part-way through and checks
// the contract: the run reports context.Canceled, stops within a few chunks
// per thread, and leaves no reduction worker goroutine behind.
func checkCancelMidRun(t *testing.T, nt int) {
	t.Helper()
	const n = 200_000
	const cancelAt = 1000
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	app := &cancellingApp{bucketApp: bucketApp{width: 10}, at: cancelAt, cancel: cancel}
	s := MustNewScheduler[int, int64](app, SchedArgs{NumThreads: nt, ChunkSize: 1, NumIters: 1})
	err := s.RunContext(ctx, histInput(n), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The cancellation flag is raised by a watcher goroutine, so a handful
	// of chunks may still slip through after cancel() — but nothing close to
	// the remainder of the input.
	if got := s.Stats().ChunksProcessed; got >= n/2 {
		t.Fatalf("run consumed %d of %d chunks after cancellation at %d", got, n, cancelAt)
	}
	// Every reduction worker must have exited; give the runtime a moment to
	// retire them before declaring a leak.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i > 100 {
			t.Fatalf("goroutines leaked: %d before run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunContextCancelStopsMidRun(t *testing.T) { checkCancelMidRun(t, 1) }

// TestStealingCancelMidSteal is the multi-thread leg: four workers are
// mid-split when the cancel lands, and each must stop and exit.
func TestStealingCancelMidSteal(t *testing.T) { checkCancelMidRun(t, 4) }

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 3})
	err := s.RunContext(ctx, histInput(1000), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

func TestRunContextCancelCause(t *testing.T) {
	cause := errors.New("drained for shutdown")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
	err := s.RunContext(ctx, histInput(100), nil)
	if !errors.Is(err, cause) {
		t.Fatalf("cancellation cause lost: %v", err)
	}
}

func TestRunContextSuccessMatchesRun(t *testing.T) {
	in := histInput(5000)
	want := make([]int64, 10)
	s1 := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
	if err := s1.Run(in, want); err != nil {
		t.Fatal(err)
	}
	got := make([]int64, 10)
	s2 := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
	if err := s2.RunContext(context.Background(), in, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: RunContext %d, Run %d", i, got[i], want[i])
		}
	}
}

func TestSubscribeEarlyEmitsDeliversTriggeredValues(t *testing.T) {
	const n, half = 512, 2
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i)
	}
	app := movingSumApp{half: half, total: n, trigger: true}
	s := MustNewScheduler[float64, float64](app, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
	var mu sync.Mutex
	emitted := map[int]float64{}
	s.SubscribeEarlyEmits(func(key int, v float64) {
		mu.Lock()
		emitted[key] = v
		mu.Unlock()
	})
	out := make([]float64, n)
	if err := s.Run(in, out); err != nil {
		t.Fatal(err)
	}
	if int64(len(emitted)) != s.Stats().EmittedEarly {
		t.Fatalf("subscriber saw %d emissions, stats counted %d", len(emitted), s.Stats().EmittedEarly)
	}
	if len(emitted) == 0 {
		t.Fatal("no early emissions delivered")
	}
	for k, v := range emitted {
		if v != out[k] {
			t.Fatalf("key %d: emitted %v, output slot holds %v", k, v, out[k])
		}
	}
}
