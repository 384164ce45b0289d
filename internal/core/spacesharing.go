package core

import (
	"context"
	"errors"
	"time"

	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/obs"
)

// Feed hands one time-step's output partition to the analytics task in
// space sharing mode (the paper's feed). The partition is copied into a cell
// of the internal circular buffer — the one-copy cost that distinguishes
// space sharing from time sharing — and Feed blocks while the buffer is
// full, back-pressuring the simulation exactly as Section 3.2 describes.
func (s *Scheduler[In, Out]) Feed(in []In) error {
	start := time.Now()
	cell := make([]In, len(in))
	copy(cell, in)
	var alloc *memmodel.Allocation
	if s.args.Mem != nil {
		var err error
		alloc, err = s.args.Mem.Alloc("circular buffer cell", int64(len(in))*int64(elemSize[In]()))
		if err != nil {
			return err
		}
	}
	if err := s.buf.Put(feedItem[In]{data: cell, mem: alloc}); err != nil {
		alloc.Free()
		return err
	}
	// The feed span (copy + any blocked-on-full wait) goes to the observer
	// only, not to SubscribeSpans: it fires on the producer goroutine, and the
	// subscriber contract promises the coordinating goroutine. The
	// consumer-side "read" span covers the other end.
	s.obs.RecordSpan(obs.Span{Cat: "core", Name: "feed", Start: start, Dur: time.Since(start),
		Attrs: map[string]any{"elems": len(in)}})
	return nil
}

// CloseFeed signals that no further time-steps will be fed. Pending
// RunShared calls drain the buffer and then return ErrFeedClosed.
func (s *Scheduler[In, Out]) CloseFeed() {
	if s.buf != nil {
		s.buf.Close()
	}
}

// ErrFeedClosed is returned by RunShared once the feed is closed and the
// circular buffer drained.
var ErrFeedClosed = errors.New("core: feed closed")

// RunShared consumes the oldest buffered time-step and runs the analytics
// over it — the space sharing counterpart of Run.
func (s *Scheduler[In, Out]) RunShared(out []Out) error {
	start := time.Now()
	item, err := s.buf.Get()
	if err != nil {
		return ErrFeedClosed
	}
	// "read" is the phase the plain Run path never has: waiting on (and
	// dequeuing from) the circular buffer. Delivered on the consumer — the
	// coordinating goroutine — so it reaches SubscribeSpans too.
	s.phaseEvent("read", start)
	defer item.mem.Free()
	return s.run(context.Background(), item.data, out)
}

// RunShared2 is RunShared, kept for callers written against the former
// gen_keys entry point.
//
// Deprecated: use RunShared; the app's GenKeys selects the multi-key path.
func (s *Scheduler[In, Out]) RunShared2(out []Out) error { return s.RunShared(out) }

// DrainFeed closes the feed and discards every time-step still buffered,
// releasing each cell's virtual memory allocation, and reports how many
// steps were dropped. Call it when the consumer abandons a fed stream early
// (an analytics error, a cancelled job): a consumed item's allocation is
// always freed by RunShared — even when the run fails — but items still
// sitting in the circular buffer would otherwise keep their memmodel charge
// alive for the scheduler's lifetime. Closing first means a concurrent
// producer cannot refill the buffer mid-drain; its Feed fails and frees its
// own allocation on the Put error path.
func (s *Scheduler[In, Out]) DrainFeed() int {
	if s.buf == nil {
		return 0
	}
	s.buf.Close()
	n := 0
	for {
		item, err := s.buf.Get()
		if err != nil {
			return n
		}
		item.mem.Free()
		n++
	}
}

// BufferStats exposes the circular buffer's produced/consumed counters and
// how often the producer blocked (zero values before the first Feed).
func (s *Scheduler[In, Out]) BufferStats() (produced, consumed, producerWaits int) {
	if s.buf == nil {
		return 0, 0, 0
	}
	return s.buf.Stats()
}

// BufferBlockedTime reports how long the space-sharing producer (Feed) has
// cumulatively blocked on a full circular buffer and the consumer
// (RunShared) on an empty one — the backpressure signal of Section 3.2.
func (s *Scheduler[In, Out]) BufferBlockedTime() (producer, consumer time.Duration) {
	if s.buf == nil {
		return 0, 0
	}
	return s.buf.BlockedTime()
}

// elemSize conservatively estimates the in-memory size of one element of
// type T for virtual memory accounting.
func elemSize[T any]() int {
	var v T
	switch any(v).(type) {
	case float64, int64, uint64, int, uint, complex64:
		return 8
	case float32, int32, uint32:
		return 4
	case int16, uint16:
		return 2
	case int8, uint8, bool:
		return 1
	default:
		return 16
	}
}
