package core

import (
	"math"
	"sync"
	"testing"
)

func TestRunShared2WindowAnalytics(t *testing.T) {
	// Space sharing with a gen_keys application: per-step moving sums
	// through the circular buffer must match the time-sharing Run.
	const n, half, steps = 120, 2, 4
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i % 9)
	}
	app := movingSumApp{half: half, total: n, trigger: true}

	want := make([]float64, n)
	ts := MustNewScheduler[float64, float64](app, SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1})
	if err := ts.Run(in, want); err != nil {
		t.Fatal(err)
	}

	ss := MustNewScheduler[float64, float64](app, SchedArgs{
		NumThreads: 2, ChunkSize: 1, NumIters: 1, BufferCells: 2,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			if err := ss.Feed(in); err != nil {
				t.Errorf("feed: %v", err)
				return
			}
		}
		ss.CloseFeed()
	}()
	consumed := 0
	for {
		ss.ResetCombinationMap()
		got := make([]float64, n)
		err := ss.RunShared(got)
		if err == ErrFeedClosed {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		consumed++
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("step %d out[%d] = %v, want %v", consumed, i, got[i], want[i])
			}
		}
	}
	wg.Wait()
	if consumed != steps {
		t.Fatalf("consumed %d steps, want %d", consumed, steps)
	}
}
