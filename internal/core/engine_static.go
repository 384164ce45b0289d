package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scipioneer/smart/internal/chunk"
)

// staticEngine is the paper's reference schedule (Section 3.2): each block is
// partitioned into one equal chunk-aligned split per thread, assigned up
// front. It is optimal when every unit chunk costs the same and is kept as
// the ablation baseline for the stealing engine; the default, so existing
// results are preserved bit for bit.
type staticEngine[In, Out any] struct {
	s *Scheduler[In, Out]
	// redMaps holds one segment store per thread; thread t's splits of every
	// block of the iteration accumulate into redMaps[t], exactly the
	// pre-engine behavior. The slots persist across iterations so their
	// storage is reused (see newSegStore).
	redMaps []*arenaStore
}

func (e *staticEngine[In, Out]) name() string { return EngineStatic }

func (e *staticEngine[In, Out]) distribute(env *runEnv[In, Out]) {
	s := e.s
	if e.redMaps == nil {
		e.redMaps = make([]*arenaStore, s.args.NumThreads)
	}
	for t := range e.redMaps {
		e.redMaps[t] = s.newSegStore(e.redMaps[t])
	}
	s.distributeInto(e.redMaps, env)
}

// reduceBlock partitions one block into per-thread splits and processes them
// in parallel (or sequentially under SchedArgs.Sequential, timing each split
// for the replay simulator).
func (e *staticEngine[In, Out]) reduceBlock(block chunk.Split, env *runEnv[In, Out]) error {
	s := e.s
	nt := s.args.NumThreads
	splits := chunk.Partition(block.Length, nt, s.args.ChunkSize)
	for i := range splits {
		splits[i].Start += block.Start
	}

	if s.args.Sequential || nt == 1 {
		for t, sp := range splits {
			start := time.Now()
			err := s.processSplit(sp, e.redMaps[t], env)
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
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			work := func() {
				start := time.Now()
				errs[t] = s.processSplit(splits[t], e.redMaps[t], env)
				d := time.Since(start)
				s.stats.SplitTimes[t] += d
				atomic.AddInt64((*int64)(&s.stats.ReductionTime), int64(d))
			}
			s.labelWorker(EngineStatic, work)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (e *staticEngine[In, Out]) segments() []*arenaStore {
	segs := make([]*arenaStore, len(e.redMaps))
	copy(segs, e.redMaps)
	return segs
}
