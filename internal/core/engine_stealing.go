package core

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/obs"
)

// stealMinBatch floors the adaptive batch size (in unit chunks). Below this
// the deque CAS per claim starts to show against the static engine's free
// pointer increment on chunk-per-element workloads.
const stealMinBatch = 8

// stealingEngine executes the reduction phase with work stealing: every
// block starts from the exact ranges the static engine would use (one
// chunk-aligned split per thread), but each range lives in a BatchDeque.
// Owners claim adaptive batches from the front of their own deque — coarse
// while the queue is full, shrinking toward stealMinBatch as it drains
// (chunk.AdaptiveBatch) — and process them in chunk order. A thread whose
// deque runs dry steals the back half of the fullest remaining range into a
// new deque (stealable in turn) and a new segment seeded with its own clone
// of the combination map, then continues as that range's owner.
//
// Determinism: front claims keep every segment's accumulation in ascending
// chunk order, and a steal splits a contiguous range into two contiguous
// halves — so ordering segments by their first input offset (see segments)
// makes each key's partials merge in ascending input order, the same order
// the static engine produces. A run with zero steals groups contributions
// exactly as the static engine's splits and is therefore bit-identical to
// it; runs with steals add segment boundaries inside a range, which only
// shows where the arithmetic is grouping-sensitive (floating-point rounding,
// early-emission triggers that straddle a boundary convert at the end of the
// run instead).
type stealingEngine[In, Out any] struct {
	s *Scheduler[In, Out]
	// primary holds the nt per-thread segments created at distribute.
	primary []stealSeg
	// primed records whether primary start keys were set (first block).
	primed bool
	// mu guards stolen, which worker goroutines append to at steal time.
	mu     sync.Mutex
	stolen []stealSeg
}

// stealSeg is one reduction-store segment plus the element offset of the
// first unit it owned, which orders segments for local combination.
type stealSeg struct {
	m        *arenaStore
	startKey int
}

func (e *stealingEngine[In, Out]) name() string { return EngineStealing }

func (e *stealingEngine[In, Out]) distribute(env *runEnv[In, Out]) {
	s := e.s
	nt := s.args.NumThreads
	if e.primary == nil {
		e.primary = make([]stealSeg, nt)
	}
	stores := make([]*arenaStore, nt)
	for t := range stores {
		stores[t] = s.newSegStore(e.primary[t].m)
		e.primary[t] = stealSeg{m: stores[t]}
	}
	e.stolen = nil
	e.primed = false
	s.distributeInto(stores, env)
}

func (e *stealingEngine[In, Out]) reduceBlock(block chunk.Split, env *runEnv[In, Out]) error {
	s := e.s
	nt := s.args.NumThreads
	cs := s.args.ChunkSize
	splits := chunk.Partition(block.Length, nt, cs)
	for i := range splits {
		splits[i].Start += block.Start
	}
	if !e.primed {
		for t := range e.primary {
			e.primary[t].startKey = splits[t].Start
		}
		e.primed = true
	}

	if s.args.Sequential || nt == 1 {
		// One worker has nobody to steal from: drain each range in order on
		// the calling goroutine — exactly the static schedule, so results
		// are bit-identical — while still timing each split for the replay
		// simulator. Each split counts as one claimed batch.
		for t, sp := range splits {
			start := time.Now()
			err := s.processSplit(sp, e.primary[t].m, env)
			d := time.Since(start)
			s.stats.SplitTimes[t] += d
			s.stats.ReductionTime += d
			atomic.AddInt64(&s.stats.BatchesClaimed, 1)
			s.met.batches.Add(1)
			if err != nil {
				return err
			}
		}
		return nil
	}

	// Unit indices are block-global: unit u covers elements
	// [block.Start+u·cs, block.Start+(u+1)·cs) ∩ block, so a stolen unit
	// range translates to an element span with block.UnitRange regardless of
	// which split it came from.
	// own is read after workers spawn, so it must not alias reg.deques —
	// a concurrent steal appends to the registry and may move its backing
	// array.
	own := make([]*chunk.BatchDeque, nt)
	for t, sp := range splits {
		u0 := (sp.Start - block.Start) / cs
		own[t] = chunk.NewBatchDeque(u0, u0+sp.NumChunks(cs))
	}
	reg := &stealRegistry{deques: append(make([]*chunk.BatchDeque, 0, 2*nt), own...)}

	var abort atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, nt)
	for t := 0; t < nt; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.labelWorker(EngineStealing, func() {
				errs[t] = e.runWorker(t, block, own[t], e.primary[t].m, reg, &abort, env)
			})
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runWorker is one reduction worker: drain the owned deque in adaptive
// batches, then steal; repeat until no deque holds stealable work. Ranges
// only shrink, so an empty scan is a stable exit condition. On error the
// worker raises abort, which stops every worker within one batch.
func (e *stealingEngine[In, Out]) runWorker(t int, block chunk.Split, d *chunk.BatchDeque,
	seg *arenaStore, reg *stealRegistry, abort *atomic.Bool, env *runEnv[In, Out]) error {

	s := e.s
	nt := s.args.NumThreads
	cs := s.args.ChunkSize
	wallStart := time.Now()
	var busy time.Duration
	var batches, steals int64
	var err error

steal:
	for {
		for {
			if abort.Load() {
				break steal
			}
			u0, n := d.PopFront(chunk.AdaptiveBatch(d.Remaining(), nt, stealMinBatch))
			if n == 0 {
				break
			}
			batches++
			s.met.queueDepth.Set(int64(d.Remaining()))
			start := time.Now()
			perr := s.processSplit(block.UnitRange(cs, u0, n), seg, env)
			busy += time.Since(start)
			if perr != nil {
				err = perr
				abort.Store(true)
				break steal
			}
		}
		// Own deque dry: steal the back half of the fullest range into a new
		// deque (other threads may steal from it in turn) and a new segment
		// seeded with a fresh combination-map clone — stolen ranges need the
		// same distributed state (centroids, weights) the primary segments
		// received. Cloning reads the combination map concurrently with
		// reduction, which is safe: reduction never mutates its objects.
		victim := reg.richest()
		if victim == nil {
			break
		}
		u0, n := victim.StealHalf()
		if n == 0 {
			continue // lost the race to another thief or the owner; rescan
		}
		steals++
		seg = s.cloneComSegment(env)
		d = chunk.NewBatchDeque(u0, u0+n)
		e.mu.Lock()
		e.stolen = append(e.stolen, stealSeg{m: seg, startKey: block.Start + u0*cs})
		e.mu.Unlock()
		reg.add(d)
	}

	s.stats.SplitTimes[t] += busy
	atomic.AddInt64((*int64)(&s.stats.ReductionTime), int64(busy))
	atomic.AddInt64(&s.stats.BatchesClaimed, batches)
	atomic.AddInt64(&s.stats.Steals, steals)
	s.met.batches.Add(batches)
	s.met.steals.Add(steals)
	wall := time.Since(wallStart)
	// One busy/idle span per worker per block, to the observer only (this
	// runs on the worker goroutine; SubscribeSpans promises the coordinating
	// goroutine). Dur is busy time; idle_ns is the wall remainder spent on
	// deque operations, steal scans, and waiting out the block.
	s.obs.RecordSpan(obs.Span{Cat: "core", Name: "reduction worker", Start: wallStart, Dur: busy,
		Attrs: map[string]any{"thread": t, "idle_ns": (wall - busy).Nanoseconds(),
			"batches": batches, "steals": steals}})
	return err
}

func (e *stealingEngine[In, Out]) segments() []*arenaStore {
	segs := make([]stealSeg, 0, len(e.primary)+len(e.stolen))
	segs = append(segs, e.primary...)
	segs = append(segs, e.stolen...)
	// Ascending first-owned-offset order; the stable sort keeps the empty
	// trailing primaries (parts > units) in thread order. With BlockSize > 0
	// primaries are keyed by their first block's range, so cross-block order
	// is per-segment, not global — merge semantics do not depend on it.
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].startKey < segs[j].startKey })
	out := make([]*arenaStore, len(segs))
	for i := range segs {
		out[i] = segs[i].m
	}
	// Primary stores stay in their slots for recycling at the next
	// distribute; stolen segments are one-iteration objects.
	e.stolen = nil
	return out
}

// cloneComSegment builds a fresh segment reduction store seeded with a deep
// clone of the combination map, charging the clones to the live-object and
// memory accounting exactly as the distribute step does. It runs on a
// stealing worker concurrently with reduction, which is safe: forEachIn only
// reads the combination store, and reduction never mutates it.
func (s *Scheduler[In, Out]) cloneComSegment(env *runEnv[In, Out]) *arenaStore {
	m := s.newSegStore(nil)
	for si := 0; si < s.store.numShards(); si++ {
		s.store.forEachIn(si, func(k int, obj RedObj) {
			c := m.insertClone(k, obj)
			env.live.add(1)
			env.tracker.add(int64(s.sizeOfRedObj(c)))
		})
	}
	return m
}

// stealRegistry is the set of live deques of one block. Appends and scans
// take a mutex — steals are rare by design, so the lock never sees the
// per-batch hot path.
type stealRegistry struct {
	mu     sync.Mutex
	deques []*chunk.BatchDeque
}

func (r *stealRegistry) add(d *chunk.BatchDeque) {
	r.mu.Lock()
	r.deques = append(r.deques, d)
	r.mu.Unlock()
}

// richest returns the deque with the most remaining units, or nil when no
// deque holds at least 2·stealMinBatch. Smaller tails are left to their
// owner: stealing one costs a combination-map clone plus a new segment in
// the local combine for at most stealMinBatch units of relief, which is a
// net loss — it is where the stealing engine's uniform-workload overhead
// came from before the floor.
func (r *stealRegistry) richest() *chunk.BatchDeque {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *chunk.BatchDeque
	bestRem := 2*stealMinBatch - 1
	for _, d := range r.deques {
		if rem := d.Remaining(); rem > bestRem {
			best, bestRem = d, rem
		}
	}
	return best
}
