package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scipioneer/smart/internal/chunk"
)

// runEnv bundles the per-run state the scheduler threads through the
// reduction phase: the input and output arrays and the live-object and
// memory accounting shared by every worker.
type runEnv[In, Out any] struct {
	in      []In
	out     []Out
	live    *liveCounter
	tracker *memTracker
}

// distribute prepares the per-thread reduction stores for one iteration,
// deep-cloning the combination map into each (the paper's per-iteration
// distribution step). Called once per iteration, before the first
// reduceBlock.
func (s *Scheduler[In, Out]) distribute(env *runEnv[In, Out]) {
	if s.redMaps == nil {
		s.redMaps = make([]*arenaStore, s.args.NumThreads)
	}
	for t := range s.redMaps {
		s.redMaps[t] = s.newSegStore(s.redMaps[t])
	}
	s.distributeInto(s.redMaps, env)
}

// distributeInto deep-clones the combination map into every target reduction
// store, shard-parallel: each worker clones its shard for every target, so
// the per-iteration clone cost scales with cores instead of riding the
// coordinating goroutine. insertClone is the store's clone-seed: it assigns
// into slab slots for FixedSizeObj applications and clones through
// RedObj.Clone otherwise.
func (s *Scheduler[In, Out]) distributeInto(stores []*arenaStore, env *runEnv[In, Out]) {
	forShards(s.store.numShards(), s.phaseWorkers(), func(si int) {
		s.store.forEachIn(si, func(k int, obj RedObj) {
			for t := range stores {
				c := stores[t].insertClone(k, obj)
				env.live.add(1)
				env.tracker.add(int64(s.sizeOfRedObj(c)))
			}
		})
	})
}

// newSegStore returns one per-thread reduction store: prev cleared in place,
// reusing its index, arena, and slab storage, or a fresh store when there is
// none.
func (s *Scheduler[In, Out]) newSegStore(prev *arenaStore) *arenaStore {
	if prev != nil {
		prev.clear()
		return prev
	}
	return newArenaStore(s.store.numShards(), s.newObj)
}

// reduceBlock is the paper's static schedule (Section 3.2): one block is
// partitioned into one equal chunk-aligned split per thread, and thread t
// accumulates its split into redMaps[t]. The splits run in parallel, or one
// after another under SchedArgs.Sequential, timing each split for the replay
// simulator. Called serially, once per block.
func (s *Scheduler[In, Out]) reduceBlock(block chunk.Split, env *runEnv[In, Out]) error {
	nt := s.args.NumThreads
	splits := chunk.Partition(block.Length, nt, s.args.ChunkSize)
	for i := range splits {
		splits[i].Start += block.Start
	}

	if s.args.Sequential || nt == 1 {
		for t, sp := range splits {
			start := time.Now()
			err := s.processSplit(sp, s.redMaps[t], env)
			d := time.Since(start)
			s.stats.SplitTimes[t] += d
			s.stats.ReductionTime += d
			if err != nil {
				return err
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, nt)
	for t := 0; t < nt; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.labelWorker(func() {
				start := time.Now()
				errs[t] = s.processSplit(splits[t], s.redMaps[t], env)
				d := time.Since(start)
				s.stats.SplitTimes[t] += d
				atomic.AddInt64((*int64)(&s.stats.ReductionTime), int64(d))
			})
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
