package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/scipioneer/smart/internal/mpi"
)

// benchApp is the merge used by the combination benchmarks: countObj
// addition, the cheapest shipped merge — so the benchmarks measure pipeline
// overhead, not application arithmetic.
var benchApp = bucketApp{width: 1}

// buildRedMaps fills one reduction store per thread, every thread holding
// every key — the worst-case local-combine workload (all keys collide and
// must merge).
func buildRedMaps(threads, keys, shards int) []*arenaStore {
	redMaps := make([]*arenaStore, threads)
	for t := range redMaps {
		redMaps[t] = newArenaStore(shards, benchApp.NewRedObj)
		for k := 0; k < keys; k++ {
			redMaps[t].insert(k, &countObj{n: int64(t + k)})
		}
	}
	return redMaps
}

// BenchmarkLocalCombine compares the serial local combine (one shard, so one
// goroutine walks every thread's whole reduction store) against the
// shard-parallel pipeline at the same thread counts.
func BenchmarkLocalCombine(b *testing.B) {
	const keys = 16384
	for _, threads := range []int{1, 4, 8} {
		for _, mode := range []string{"serial", "sharded"} {
			shards := threads
			if mode == "serial" {
				shards = 1
			}
			b.Run(fmt.Sprintf("threads=%d/%s", threads, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					redMaps := buildRedMaps(threads, keys, shards)
					com := newArenaStore(shards, benchApp.NewRedObj)
					b.StartTimer()
					forShards(shards, threads, func(si int) {
						for _, seg := range redMaps {
							seg.forEachIn(si, func(k int, obj RedObj) {
								if dst, ok := com.lookup(k); ok {
									benchApp.Merge(obj, dst)
								} else {
									com.insert(k, obj)
								}
							})
						}
					})
				}
			})
		}
	}
}

// BenchmarkGlobalCombine runs a 4-rank in-process tree over an 8192-key map
// through the sharded decode-once streamed reduce. allocs/op is the headline
// number: the path re-serializes nothing at interior tree levels and reuses
// its scratch buffer across rounds.
func BenchmarkGlobalCombine(b *testing.B) {
	const ranks = 4
	const keys = 8192
	template := make(CombMap, keys)
	for k := 0; k < keys; k++ {
		template[k] = &countObj{n: int64(k)}
	}
	b.Run("sharded", func(b *testing.B) {
		comms := mpi.NewWorld(ranks)
		scheds := make([]*Scheduler[int, int64], ranks)
		for r := range scheds {
			scheds[r] = MustNewScheduler[int, int64](benchApp,
				SchedArgs{NumThreads: 2, ChunkSize: 1, Comm: comms[r]})
		}
		reset := func() {
			for _, s := range scheds {
				s.store.reseed(cloneMap(template))
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			reset()
			b.StartTimer()
			var wg sync.WaitGroup
			errs := make([]error, ranks)
			for r := range scheds {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[r] = scheds[r].globalCombine()
				}()
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					b.Fatalf("rank %d: %v", r, err)
				}
			}
		}
		b.StopTimer()
		for _, c := range comms {
			c.Close()
		}
	})
}
