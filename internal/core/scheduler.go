package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scipioneer/smart/internal/chunk"
	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/obs"
)

// Run executes the analytics over one partition in time sharing mode. in is
// read through directly — typically the simulation's own output buffer — and
// is never copied or mutated. The final result is converted into out (which
// may be nil to skip conversion). This is Algorithm 1 of the paper; the app's
// key generator (GenKey or GenKeys) selects the one- or multi-key path.
func (s *Scheduler[In, Out]) Run(in []In, out []Out) error {
	return s.run(context.Background(), in, out)
}

// RunContext is Run with deadline/cancellation support. Cancellation is
// observed at chunk granularity: every reduction worker checks a flag raised
// by ctx's completion before consuming the next unit chunk, so a cancelled
// run stops within one chunk per thread (within cancelPollMask+1 chunks on a
// host where the watcher goroutine is starved) and returns an error wrapping
// context.Cause(ctx). The combination map is left as of the last completed
// phase — callers that checkpoint after cancellation persist a consistent
// (if not fully converged) state.
func (s *Scheduler[In, Out]) RunContext(ctx context.Context, in []In, out []Out) error {
	return s.run(ctx, in, out)
}

// errCancelled is the internal sentinel the reduction workers return when
// they observe the cancellation flag; run translates it into an error that
// wraps the context's cause.
var errCancelled = errors.New("core: run cancelled")

// cancelPollMask sets how often (in chunks, power of two minus one) a
// reduction worker pays a direct ctx.Err() — a mutex acquisition — on top of
// the free per-chunk atomic flag check. 255 keeps the direct check off the
// hot path while bounding cancellation latency even when the watcher
// goroutine is starved.
const cancelPollMask = 255

// cancelErr wraps the context's cancellation cause so callers can match it
// with errors.Is(err, context.Canceled) / context.DeadlineExceeded.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("core: run cancelled: %w", context.Cause(ctx))
}

func (s *Scheduler[In, Out]) run(ctx context.Context, in []In, out []Out) error {
	// The chunk loops poll s.cancelled (one uncontended atomic load per
	// chunk) instead of ctx.Err(), so cancellation support costs the hot
	// path nothing measurable; an AfterFunc watcher raises the flag. The
	// watcher runs on its own goroutine, which a tight reduction loop on a
	// GOMAXPROCS=1 host can starve — so the workers also consult the
	// context directly every cancelPollChunks chunks as a backstop.
	s.cancelled.Store(false)
	s.runCtx = ctx
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return cancelErr(ctx)
		}
		stop := context.AfterFunc(ctx, func() { s.cancelled.Store(true) })
		defer stop()
	}
	nt := s.args.NumThreads
	s.stats.reset(nt)

	tracker, err := newMemTracker(s.args.Mem)
	if err != nil {
		return err
	}
	defer tracker.release()

	// process_extra_data: initialize the combination map if needed.
	if s.extraProc != nil {
		s.throughView(func(com CombMap) { s.extraProc.ProcessExtraData(s.args.Extra, com) })
	}

	live := &liveCounter{}
	env := &runEnv[In, Out]{in: in, out: out, live: live, tracker: tracker}

	for iter := 0; iter < s.args.NumIters; iter++ {
		if s.cancelled.Load() || ctx.Err() != nil {
			return cancelErr(ctx)
		}
		// Reduction starts from empty per-thread stores; the combination map
		// keeps the state carried across iterations.
		s.resetRedMaps()

		// Reduction phase, block by block, one split per thread.
		redStart := time.Now()
		var redErr error
		chunk.Blocks(len(in), s.args.BlockSize, s.args.ChunkSize, func(block chunk.Split) {
			if redErr != nil {
				return
			}
			redErr = s.reduceBlock(block, env)
		})
		if redErr != nil {
			if errors.Is(redErr, errCancelled) {
				return cancelErr(ctx)
			}
			return redErr
		}
		s.phaseEvent("reduction", redStart)
		for _, m := range s.redMaps {
			s.met.redmapSize.Observe(float64(m.size()))
		}

		// Local combination: merge every thread's reduction store into the
		// combination map, shard-parallel — worker w merges shard w of every
		// store, so no two workers ever touch the same key and the merge
		// needs no locks. Stores merge in thread order, so each key's
		// partials merge in the same order however the goroutines were
		// scheduled. Objects for unseen keys are moved; objects for existing
		// keys are merged and die. The stores stay in their slots and are
		// cleared for reuse at the next iteration.
		start := time.Now()
		durs := forShards(s.store.numShards(), s.phaseWorkers(), func(si int) {
			for _, seg := range s.redMaps {
				seg.forEachIn(si, func(k int, obj RedObj) {
					if dst, ok := s.store.lookup(k); ok {
						s.app.Merge(obj, dst)
						tracker.add(-int64(s.sizeOfRedObj(obj)))
					} else {
						s.store.insert(k, obj)
					}
					live.add(-1)
				})
			}
		})
		s.flushStoreStats(s.redMaps)
		s.stats.LocalCombineTime += time.Since(start)
		s.shardSpans("local combine shard", start, durs)
		s.phaseEvent("local combine", start)
		if err := tracker.sync(); err != nil {
			return err
		}

		// A cancelled job must not enter the collective: peers would block
		// on a rank that is about to abandon the communicator.
		if s.cancelled.Load() || ctx.Err() != nil {
			return cancelErr(ctx)
		}
		// Global combination: merge node combination maps across the
		// communicator; every process ends up with the global map, which the
		// next iteration's reduction merges into.
		if s.globalComb && s.args.Comm != nil && s.args.Comm.Size() > 1 {
			gcStart := time.Now()
			gcID, restore := s.pushPhaseTrace()
			err := s.globalCombine()
			restore()
			if err != nil {
				return err
			}
			s.phaseEventID("global combine", gcStart, gcID)
		}

		if s.postComb != nil {
			pcStart := time.Now()
			s.throughView(s.postComb.PostCombine)
			s.phaseEvent("post combine", pcStart)
		}
	}

	s.stats.MaxLiveRedObjs = live.peak.Load()
	s.met.livePeak.Set(s.stats.MaxLiveRedObjs)
	convStart := time.Now()
	err = s.convert(out)
	s.phaseEvent("convert", convStart)
	s.met.runs.Inc()
	return err
}

// phaseEvent records a completed phase as an obs span — metrics + trace via
// the observer, then the scheduler's subscribers. Called only from the
// coordinating goroutine.
func (s *Scheduler[In, Out]) phaseEvent(name string, start time.Time) {
	s.phaseEventID(name, start, 0)
}

// phaseEventID is phaseEvent for phases whose span ID was pre-allocated so
// child work (collectives during global combination) could parent under the
// phase before the phase span itself is recorded. id 0 allocates on demand.
func (s *Scheduler[In, Out]) phaseEventID(name string, start time.Time, id uint64) {
	sp := obs.Span{Cat: "core", Name: name, Start: start, Dur: time.Since(start)}
	if tc := s.traceCtx; tc.Valid() {
		if id == 0 {
			id = obs.NewID()
		}
		sp.Trace, sp.ID, sp.Parent, sp.Rank = tc.TraceID, id, tc.SpanID, s.rank()
	}
	s.obs.RecordSpan(sp)
	for _, fn := range s.spanSubs {
		fn(sp)
	}
}

// rank is this scheduler's mpi rank, 0 without a communicator.
func (s *Scheduler[In, Out]) rank() int {
	if s.args.Comm != nil {
		return s.args.Comm.Rank()
	}
	return 0
}

// pushPhaseTrace allocates the span ID of a phase that is about to run
// collectives and re-points the communicator's trace context at it, so the
// collective child spans recorded by mpi nest under the phase span instead
// of the job root. The returned restore puts the previous context back; the
// returned id goes to phaseEventID. With tracing off both are no-ops.
func (s *Scheduler[In, Out]) pushPhaseTrace() (id uint64, restore func()) {
	tc := s.traceCtx
	if !tc.Valid() || s.args.Comm == nil {
		return 0, func() {}
	}
	id = obs.NewID()
	comm := s.args.Comm
	prev := comm.TraceContext()
	comm.SetTraceContext(obs.TraceContext{TraceID: tc.TraceID, SpanID: id})
	return id, func() { comm.SetTraceContext(prev) }
}

// shardSpans records one observer span per shard of a shard-parallel phase,
// carrying the shard index as an attribute. Like the producer-side "feed"
// span, these go to the observer only, not to SubscribeSpans — the
// subscribers get the single phase-level event, the trace gets the per-shard
// breakdown (each span's Start is the phase start; Dur is that shard's own
// processing time).
func (s *Scheduler[In, Out]) shardSpans(name string, start time.Time, durs []time.Duration) {
	if len(durs) <= 1 {
		return
	}
	for si, d := range durs {
		s.obs.RecordSpan(obs.Span{Cat: "core", Name: name, Start: start, Dur: d,
			Attrs: map[string]any{"shard": si}})
	}
}

// labelWorker runs one reduction worker body, under a runtime/pprof label
// attributing its samples to the reduction phase when SetPprofLabels is on.
// Worker goroutines inherit the coordinating goroutine's labels (job,
// tenant, app — set by the serve layer), so the phase label composes with
// rather than replaces them.
func (s *Scheduler[In, Out]) labelWorker(work func()) {
	if !s.pprofLabels {
		work()
		return
	}
	pprof.Do(s.runCtx, pprof.Labels("phase", "reduction"), func(context.Context) { work() })
}

// phaseWorkers is the goroutine budget of the shard-parallel phases: the
// thread count, except under Sequential where every phase stays on the
// coordinating goroutine (the replay simulator measures per-thread work on
// hosts with fewer cores than simulated threads).
func (s *Scheduler[In, Out]) phaseWorkers() int {
	if s.args.Sequential {
		return 1
	}
	return s.args.NumThreads
}

// throughView hands a hook that may change keys (ProcessExtraData,
// PostCombine) a view of the combination map, then takes in every key the
// hook inserted, deleted, or replaced.
func (s *Scheduler[In, Out]) throughView(hook func(com CombMap)) {
	com := s.store.view()
	hook(com)
	s.store.reseed(com)
}

// flushStoreStats drains the probe/footprint counters the stores accumulated
// during the iteration into the registry — one flush per phase boundary, so
// the per-chunk hot path never touches an atomic. Called from the
// coordinating goroutine after the phase workers have joined.
func (s *Scheduler[In, Out]) flushStoreStats(segs []*arenaStore) {
	st := s.store.takeStats()
	for _, seg := range segs {
		t := seg.takeStats()
		st.probes += t.probes
		st.lookups += t.lookups
		st.arenaBytes += t.arenaBytes
	}
	if st.lookups > 0 {
		s.met.storeProbeLen.Observe(float64(st.probes) / float64(st.lookups))
	}
	if st.arenaBytes > 0 {
		s.met.arenaBytes.Set(st.arenaBytes)
	}
}

// processSplit consumes one split chunk by chunk: generate key(s), locate or
// create the reduction object, accumulate, and — when the object's trigger
// fires — emit it early (Algorithm 2).
func (s *Scheduler[In, Out]) processSplit(sp chunk.Split, redMap *arenaStore, env *runEnv[In, Out]) error {
	in, out, live, tracker := env.in, env.out, env.live, env.tracker
	var keys []int
	var chunks, touched int64
	chunkSize := s.args.ChunkSize
	end := sp.End()
	// cache short-circuits the reduction-map lookup for consecutive chunks
	// sharing one key — the common case for single-key applications
	// (logistic regression) and value-clustered data.
	var cache chunkCache
	cache.key = -1 << 62
	// The chunk loop is written out inline: this is the framework's hot
	// path and a per-chunk closure dispatch is measurable against the
	// hand-coded baselines of Section 5.3.
	for start := sp.Start; start < end; start += chunkSize {
		if s.cancelled.Load() || (chunks&cancelPollMask == cancelPollMask && s.runCtx.Err() != nil) {
			atomic.AddInt64(&s.stats.ChunksProcessed, chunks)
			return errCancelled
		}
		length := chunkSize
		if start+length > end {
			length = end - start
		}
		c := chunk.Chunk{Start: start, Length: length}
		chunks++
		if s.multi != nil {
			keys = s.multi.GenKeys(c, in, keys[:0])
			touched += int64(len(keys))
			for _, k := range keys {
				s.consumeChunk(k, c, in, out, redMap, live, tracker, &cache)
			}
		} else {
			k := s.keyer.GenKey(c, in)
			touched++
			s.consumeChunk(k, c, in, out, redMap, live, tracker, &cache)
		}
		if tracker != nil && chunks%4096 == 0 {
			if err := tracker.maybeSync(); err != nil {
				return err
			}
		}
	}
	atomic.AddInt64(&s.stats.ChunksProcessed, chunks)
	// One registry update per split, not per chunk: the counters stay off
	// the hot loop that Section 5.3 benchmarks against hand-coded baselines.
	s.met.keysTouched.Add(touched)
	return tracker.maybeSync()
}

// chunkCache remembers the last (key, object) pair touched by a split.
type chunkCache struct {
	key int
	obj RedObj
}

// consumeChunk accumulates one (key, chunk) pair into the reduction map,
// creating the reduction object on first touch and emitting it early when
// its trigger fires (Algorithm 2).
func (s *Scheduler[In, Out]) consumeChunk(k int, c chunk.Chunk, in []In, out []Out,
	redMap *arenaStore, live *liveCounter, tracker *memTracker, cache *chunkCache) {

	obj := cache.obj
	if cache.key != k || obj == nil {
		var created bool
		obj, created = redMap.lookupOrCreate(k)
		if created {
			live.add(1)
			tracker.add(int64(s.sizeOfRedObj(obj)))
		}
		cache.key, cache.obj = k, obj
	}
	if tracker == nil {
		s.app.Accumulate(k, c, in, obj)
	} else {
		// Variable-size reduction objects (e.g. the holistic moving-median
		// object) grow as they accumulate; charge the growth.
		before := s.sizeOfRedObj(obj)
		s.app.Accumulate(k, c, in, obj)
		tracker.add(int64(s.sizeOfRedObj(obj) - before))
	}
	if s.hasTrigger && obj.(Triggered).Trigger() {
		// Early emission: convert and erase immediately, so the reduction
		// map never holds more than the window's worth of unfinished
		// objects.
		s.emit(k, obj, out)
		if len(s.emitSubs) > 0 {
			s.notifyEmit(k, out)
		}
		redMap.remove(k)
		live.add(-1)
		tracker.add(-int64(s.sizeOfRedObj(obj)))
		atomic.AddInt64(&s.stats.EmittedEarly, 1)
		s.met.earlyEmit.Inc()
		cache.obj = nil
	}
}

// notifyEmit forwards one freshly converted early emission to the emission
// subscribers. It runs on the reduction worker that fired the trigger, so
// subscribers must be safe for concurrent use.
func (s *Scheduler[In, Out]) notifyEmit(key int, out []Out) {
	if s.converter == nil || out == nil {
		return
	}
	idx := key - s.args.OutBase
	if idx < 0 || idx >= len(out) {
		return
	}
	v := out[idx]
	for _, fn := range s.emitSubs {
		fn(key, v)
	}
}

// emit converts a finalized reduction object into its output slot if the key
// falls inside this process's output window.
func (s *Scheduler[In, Out]) emit(key int, obj RedObj, out []Out) {
	if s.converter == nil || out == nil {
		return
	}
	idx := key - s.args.OutBase
	if idx >= 0 && idx < len(out) {
		s.converter.Convert(obj, &out[idx])
	}
}

// convert materializes the combination map into the output array,
// shard-parallel: every key owns a distinct output slot, so shards convert
// concurrently without synchronization. Converter implementations must
// therefore tolerate concurrent calls for distinct keys (all shipped
// applications do — Convert reads the object and writes its slot).
func (s *Scheduler[In, Out]) convert(out []Out) error {
	if out == nil || s.converter == nil {
		return nil
	}
	forShards(s.store.numShards(), s.phaseWorkers(), func(si int) {
		s.store.forEachIn(si, func(k int, obj RedObj) {
			s.emit(k, obj, out)
		})
	})
	return nil
}

// EncodeCombinationMap serializes the combination map in the wire format
// global combination uses. Besides checkpointing, it lets the experiment
// harness measure the serialization cost Smart pays over a contiguous-buffer
// Allreduce (Section 5.3) without running a live communicator.
func (s *Scheduler[In, Out]) EncodeCombinationMap() ([]byte, error) {
	return appendStore(nil, s.store)
}

// DecodeCombinationMap replaces the combination map with one decoded from
// EncodeCombinationMap's format. A corrupt frame leaves the map untouched.
func (s *Scheduler[In, Out]) DecodeCombinationMap(buf []byte) error {
	st, err := decodeStore(buf, s.store.numShards(), s.newObj)
	if err != nil {
		return err
	}
	s.store = st
	return nil
}

// MergeCombinationMap folds another combination map into this scheduler's
// map with the application's Merge — the building block for hybrid
// processing, where staging processes merge maps shipped from simulation
// processes. Objects for unseen keys are adopted directly (the caller must
// not reuse them afterwards).
func (s *Scheduler[In, Out]) MergeCombinationMap(m CombMap) {
	for k, obj := range m {
		s.mergeEntry(k, obj)
	}
}

// MergeEncodedCombinationMap decodes a map serialized with
// EncodeCombinationMap and folds it in. A corrupt frame merges nothing.
func (s *Scheduler[In, Out]) MergeEncodedCombinationMap(buf []byte) error {
	in, err := decodeStore(buf, s.store.numShards(), s.newObj)
	if err != nil {
		return err
	}
	for si := 0; si < in.numShards(); si++ {
		in.forEachIn(si, s.mergeEntry)
	}
	return nil
}

// mergeEntry merges obj into the object stored under k, or adopts it when
// the key is new.
func (s *Scheduler[In, Out]) mergeEntry(k int, obj RedObj) {
	if dst, ok := s.store.lookup(k); ok {
		s.app.Merge(obj, dst)
	} else {
		s.store.insert(k, obj)
	}
}

// GlobalCombine runs only the global combination phase over the current
// combination map (honoring SetGlobalCombination), applies PostCombine, and
// converts into out. It is the one cluster-wide merge at the end of a
// sequence of local-only runs: runs without a reset accumulate into the
// combination map, so partitions reduced with global combination off and
// then one GlobalCombine count every element once.
func (s *Scheduler[In, Out]) GlobalCombine(out []Out) error {
	if s.globalComb && s.args.Comm != nil && s.args.Comm.Size() > 1 {
		gcStart := time.Now()
		gcID, restore := s.pushPhaseTrace()
		err := s.globalCombine()
		restore()
		if err != nil {
			return err
		}
		s.phaseEventID("global combine", gcStart, gcID)
	}
	if s.postComb != nil {
		s.throughView(s.postComb.PostCombine)
	}
	return s.convert(out)
}

// globalCombine merges the per-process combination maps into one global map
// on every process. The merge runs along the communicator's binomial
// reduction tree using the application's own Merge, then the result is
// broadcast, so every rank continues from the global map.
//
// The tree operates per shard in decoded form (mpi.ReduceStream): a rank
// serializes each of its shards exactly once — into a reusable scratch
// buffer — when it sends to its parent, and merges incoming serialized
// shards straight into its already-decoded local shards. The
// decode-both-reencode cost the old whole-map reduce paid at every tree
// level (the Section 5.3 serialization tax, log P times over) is gone; the
// per-merge savings surface as smart_core_gc_decode_avoided_total.
func (s *Scheduler[In, Out]) globalCombine() error {
	start := time.Now()
	comm := s.args.Comm
	var sent int64
	enc := func(seg int) ([]byte, error) {
		if cap(s.gcScratch) > 0 {
			s.met.encBufReuse.Add(1)
		}
		buf, err := appendShardOf(s.gcScratch[:0], s.store, seg)
		if err != nil {
			return nil, fmt.Errorf("core: global combination encode: %w", err)
		}
		s.gcScratch = buf
		sent += int64(len(buf))
		return buf, nil
	}
	// Incoming entries for keys this rank already holds are unmarshaled into
	// one reusable scratch object and merged from there — no allocation.
	// UnmarshalBinary fully replaces an object's state (the format fuzzer
	// pins this), so scratch reuse across entries is sound; Merge must not
	// retain its src (local combination merges and drops objects the same
	// way).
	var scratch RedObj
	merge := func(_ int, payload []byte) error {
		s.met.gcDecodeAvoided.Inc()
		return walkEntries(payload, func(k int, body []byte) error {
			dst, ok := s.store.lookup(k)
			if !ok {
				obj := s.store.fresh(s.store.shardOf(k))
				if err := obj.UnmarshalBinary(body); err != nil {
					return fmt.Errorf("core: unmarshal reduction object for key %d: %w", k, err)
				}
				s.store.insert(k, obj)
				return nil
			}
			if scratch == nil {
				scratch = s.newObj()
			}
			if err := scratch.UnmarshalBinary(body); err != nil {
				return fmt.Errorf("core: unmarshal reduction object for key %d: %w", k, err)
			}
			s.app.Merge(scratch, dst)
			return nil
		})
	}
	isRoot, err := comm.ReduceStream(0, s.store.numShards(), enc, merge)
	if err != nil {
		return fmt.Errorf("core: global combination reduce: %w", err)
	}

	// Broadcast the global map. The root holds it decoded already — it
	// serializes once into a pooled buffer (canonical sorted whole-map
	// framing) and keeps its in-place merged store; the other ranks decode
	// the broadcast straight into their stores.
	if isRoot {
		buf, reused := getEncBuf()
		if reused {
			s.met.encBufReuse.Add(1)
		}
		b, err := appendStore(*buf, s.store)
		if err != nil {
			return fmt.Errorf("core: global combination encode: %w", err)
		}
		*buf = b
		sent += int64(len(b))
		if _, err := comm.Bcast(0, b); err != nil {
			return fmt.Errorf("core: global combination bcast: %w", err)
		}
		putEncBuf(buf)
	} else {
		global, err := comm.Bcast(0, nil)
		if err != nil {
			return fmt.Errorf("core: global combination bcast: %w", err)
		}
		// Decode the global map over the local store in place. The global
		// key set is a superset of every rank's local one (merging never
		// drops a key), so overwriting present objects and inserting the
		// rest yields exactly the global state — without clearing the store
		// or allocating an object per already-known key.
		err = walkEntries(global, func(k int, body []byte) error {
			if dst, ok := s.store.lookup(k); ok {
				if err := dst.UnmarshalBinary(body); err != nil {
					return fmt.Errorf("core: unmarshal reduction object for key %d: %w", k, err)
				}
				return nil
			}
			obj := s.store.fresh(s.store.shardOf(k))
			if err := obj.UnmarshalBinary(body); err != nil {
				return fmt.Errorf("core: unmarshal reduction object for key %d: %w", k, err)
			}
			s.store.insert(k, obj)
			return nil
		})
		if err != nil {
			return fmt.Errorf("core: global combination decode: %w", err)
		}
	}
	atomic.AddInt64(&s.stats.SerializedBytes, sent)
	s.met.gcBytes.Add(sent)
	s.stats.GlobalCombineTime += time.Since(start)
	return nil
}

// memTracker charges the runtime's transient data structures against a
// virtual memory node, so experiments can observe pressure and OOM.
type memTracker struct {
	alloc  *memmodel.Allocation
	bytes  atomic.Int64
	synced atomic.Int64
	mu     sync.Mutex
}

// memSyncSlack is how far accounted bytes may drift from the virtual
// allocation before a resync.
const memSyncSlack = 64 << 10

func newMemTracker(node *memmodel.Node) (*memTracker, error) {
	if node == nil {
		return nil, nil
	}
	alloc, err := node.Alloc("smart reduction maps", 0)
	if err != nil {
		return nil, err
	}
	return &memTracker{alloc: alloc}, nil
}

func (m *memTracker) add(delta int64) {
	if m == nil {
		return
	}
	m.bytes.Add(delta)
}

func (m *memTracker) maybeSync() error {
	if m == nil {
		return nil
	}
	drift := m.bytes.Load() - m.synced.Load()
	if drift < -memSyncSlack || drift > memSyncSlack {
		return m.sync()
	}
	return nil
}

func (m *memTracker) sync() error {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.bytes.Load()
	if b < 0 {
		b = 0
	}
	if err := m.alloc.Resize(b); err != nil {
		return err
	}
	m.synced.Store(b)
	return nil
}

func (m *memTracker) release() {
	if m == nil {
		return
	}
	m.alloc.Free()
}
