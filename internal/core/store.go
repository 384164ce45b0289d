package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// storeStats is the per-phase counter block a store surrenders via
// takeStats; the scheduler flushes it into the obs registry at phase ends so
// the per-chunk hot path never touches an atomic.
type storeStats struct {
	// probes/lookups accumulate open-addressing probe steps per keyed
	// operation; probes/lookups is the mean probe sequence length
	// (smart_core_store_probe_len).
	probes, lookups int64
	// arenaBytes is the current footprint of the store's index and arena
	// arrays (smart_core_arena_bytes); the objects themselves are charged
	// through the memmodel tracker.
	arenaBytes int64
}

// FixedSizeObj is an opt-in capability of reduction objects whose in-memory
// state has a fixed width (no variable-length payload: histogram buckets,
// moments, sum/count windows). The arena store exploits it for an inline
// SoA-style layout: fresh objects are carved from slabs — one backing
// allocation serving many objects, laid out contiguously.
//
// Applications opting in must keep every object in their maps the one
// concrete type (the Merge contract already demands this in practice).
type FixedSizeObj interface {
	RedObj
	// NewSlab returns n copies of the receiver backed by one contiguous
	// allocation. The store calls it on a factory-fresh object, so the
	// copies carry any non-zero factory state (pre-armed triggers).
	NewSlab(n int) []RedObj
}

// forShards runs fn(shard index) for every one of n shards on up to workers
// goroutines and reports each shard's duration — the parallel driver of every
// shard-parallel phase. With workers <= 1 the shards run serially on the
// calling goroutine (the Sequential-mode and single-thread path). The
// goroutine count is additionally clamped to GOMAXPROCS: the shard work is
// pure CPU, so goroutines beyond the schedulable parallelism only add handoff
// overhead (unlike the reduction workers, whose count is part of the
// configured execution model).
func forShards(n, workers int, fn func(shard int)) []time.Duration {
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	durs := make([]time.Duration, n)
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			start := time.Now()
			fn(i)
			durs[i] = time.Since(start)
		}
		return durs
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				start := time.Now()
				fn(i)
				durs[i] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return durs
}
