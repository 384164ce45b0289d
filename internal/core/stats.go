package core

import (
	"sync/atomic"
	"time"

	"github.com/scipioneer/smart/internal/obs"
)

// Stats reports counters from the most recent Run. The replay cluster
// simulator consumes SplitTimes to compose modeled parallel times; the
// experiments use the memory counters to reproduce the paper's footprint
// comparisons.
type Stats struct {
	// SplitTimes holds the measured processing duration of each thread's
	// split for the last block of the last iteration, indexed by thread.
	SplitTimes []time.Duration
	// ReductionTime is the total time spent in the reduction phase, summed
	// over splits (CPU time, not wall time).
	ReductionTime time.Duration
	// LocalCombineTime is the time spent merging reduction maps into the
	// local combination map.
	LocalCombineTime time.Duration
	// GlobalCombineTime is the time spent in the global combination phase,
	// including serialization.
	GlobalCombineTime time.Duration
	// SerializedBytes counts the bytes this process contributed to global
	// combination wire traffic.
	SerializedBytes int64
	// ChunksProcessed counts unit chunks consumed by the reduction phase.
	ChunksProcessed int64
	// MaxLiveRedObjs is the peak number of reduction objects alive across
	// all threads' reduction maps at once — the quantity the early emission
	// optimization bounds.
	MaxLiveRedObjs int64
	// EmittedEarly counts reduction objects converted and erased by the
	// trigger mechanism during reduction.
	EmittedEarly int64
	// Steals counts ranges taken from another thread's deque by the
	// stealing engine (always zero under the static engine).
	Steals int64
	// BatchesClaimed counts chunk batches claimed from the deques by the
	// stealing engine; the static engine does not claim batches.
	BatchesClaimed int64
}

// Snapshot returns a copy of the stats that is safe to read while a Run may
// still be mutating the original. The run loop updates ReductionTime,
// SerializedBytes, ChunksProcessed, and EmittedEarly with atomic adds, so
// those fields are loaded atomically here; SplitTimes is deep-copied. Use
// this — not the raw pointer from Scheduler.Stats — whenever the reader is
// on a different goroutine than the run (result reporting, serving,
// monitoring).
func (s *Stats) Snapshot() Stats {
	out := Stats{
		ReductionTime:     time.Duration(atomic.LoadInt64((*int64)(&s.ReductionTime))),
		LocalCombineTime:  s.LocalCombineTime,
		GlobalCombineTime: s.GlobalCombineTime,
		SerializedBytes:   atomic.LoadInt64(&s.SerializedBytes),
		ChunksProcessed:   atomic.LoadInt64(&s.ChunksProcessed),
		MaxLiveRedObjs:    s.MaxLiveRedObjs,
		EmittedEarly:      atomic.LoadInt64(&s.EmittedEarly),
		Steals:            atomic.LoadInt64(&s.Steals),
		BatchesClaimed:    atomic.LoadInt64(&s.BatchesClaimed),
	}
	if s.SplitTimes != nil {
		out.SplitTimes = make([]time.Duration, len(s.SplitTimes))
		copy(out.SplitTimes, s.SplitTimes)
	}
	return out
}

// reset clears per-Run counters.
func (s *Stats) reset(threads int) {
	if cap(s.SplitTimes) < threads {
		s.SplitTimes = make([]time.Duration, threads)
	}
	s.SplitTimes = s.SplitTimes[:threads]
	for i := range s.SplitTimes {
		s.SplitTimes[i] = 0
	}
	s.ReductionTime = 0
	s.LocalCombineTime = 0
	s.GlobalCombineTime = 0
	s.SerializedBytes = 0
	s.ChunksProcessed = 0
	s.MaxLiveRedObjs = 0
	s.EmittedEarly = 0
	s.Steals = 0
	s.BatchesClaimed = 0
}

// schedMetrics caches the scheduler's registry handles so the per-phase and
// per-split paths never pay a name lookup.
type schedMetrics struct {
	// keysTouched counts (key, chunk) pairs consumed by the reduction
	// phase — the map-side workload the paper's Section 5.3 overhead
	// analysis reasons about.
	keysTouched *obs.Counter
	// earlyEmit counts reduction objects converted and erased by the
	// Trigger mechanism (Section 4 early emission).
	earlyEmit *obs.Counter
	// gcBytes counts bytes this process serialized into global combination.
	gcBytes *obs.Counter
	// redmapSize samples each thread's reduction-map entry count at the end
	// of every reduction phase — the live-map-size quantity of Figure 11.
	redmapSize *obs.Histogram
	// livePeak tracks the peak number of live reduction objects across all
	// threads (gauge value = latest Run's peak, gauge peak = all-time).
	livePeak *obs.Gauge
	// runs counts completed Run/RunShared executions.
	runs *obs.Counter
	// gcDecodeAvoided counts incoming global-combine segments merged directly
	// into the decoded local shards — each one is a decode-both+re-encode
	// cycle the legacy whole-map reduce would have paid.
	gcDecodeAvoided *obs.Counter
	// encBufReuse counts serialization rounds that ran in a recycled buffer
	// (pooled checkpoint/broadcast encodes plus warm global-combine scratch)
	// instead of a fresh allocation.
	encBufReuse *obs.Counter
	// ckRawBytes/ckEncodedBytes count checkpoint image bytes before and
	// after the checkpoint codec (magic excluded). Equal counters mean
	// checkpoints are going to disk raw — either by configuration or because
	// compression failed to shrink them.
	ckRawBytes     *obs.Counter
	ckEncodedBytes *obs.Counter
	// steals counts work-stealing engine range steals.
	steals *obs.Counter
	// batches counts chunk batches claimed from the stealing engine's deques.
	batches *obs.Counter
	// queueDepth samples the remaining units of the deque a worker just
	// claimed from (gauge value = latest sample, gauge peak = deepest queue
	// observed — the workload size at the start of a block).
	queueDepth *obs.Gauge
	// arenaBytes gauges the bytes resident in the combination store's arena
	// storage (index tables + key/object arrays).
	arenaBytes *obs.Gauge
	// storeProbeLen samples the mean open-addressing probe length per store
	// lookup, flushed once per local-combine phase. A healthy arena table
	// stays near 1; sustained growth means the load factor or hash is wrong
	// for the workload.
	storeProbeLen *obs.Histogram
}

func (m *schedMetrics) init(r *obs.Registry) {
	m.keysTouched = r.Counter("smart_core_keys_touched_total")
	m.earlyEmit = r.Counter("smart_core_early_emissions_total")
	m.gcBytes = r.Counter("smart_core_global_combine_bytes_total")
	m.redmapSize = r.Histogram("smart_core_redmap_entries", obs.SizeBuckets)
	m.livePeak = r.Gauge("smart_core_live_redobjs")
	m.runs = r.Counter("smart_core_runs_total")
	m.gcDecodeAvoided = r.Counter("smart_core_gc_decode_avoided_total")
	m.encBufReuse = r.Counter("smart_core_enc_buf_reuse_total")
	m.ckRawBytes = r.Counter("smart_core_ck_raw_bytes_total")
	m.ckEncodedBytes = r.Counter("smart_core_ck_encoded_bytes_total")
	m.steals = r.Counter("smart_core_steals_total")
	m.batches = r.Counter("smart_core_batches_total")
	m.queueDepth = r.Gauge("smart_core_queue_depth")
	m.arenaBytes = r.Gauge("smart_core_arena_bytes")
	m.storeProbeLen = r.Histogram("smart_core_store_probe_len", obs.SizeBuckets)
}

// liveCounter tracks the number of live reduction objects across threads and
// remembers the peak.
type liveCounter struct {
	live atomic.Int64
	peak atomic.Int64
}

func (c *liveCounter) add(n int64) int64 {
	v := c.live.Add(n)
	for {
		p := c.peak.Load()
		if v <= p || c.peak.CompareAndSwap(p, v) {
			return v
		}
	}
}
