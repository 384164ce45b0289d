package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/stream"
)

// streamWorkload is stream-sliding: a sliding-window moments query over
// events that arrive mostly in order. A repetition runs the pipeline twice:
// saturated, the source pushing as fast as push returns, which gives
// throughput; and paced, an open loop at a fixed rate, which gives latency.
//
// op = creation of the last event contributing to a window until the sink
// receives that window's final pane (paced phase only).
type streamWorkload struct {
	seed uint64
	sz   sizes
}

func newStreamWorkload(seed uint64, sz sizes, _ string) workload {
	return &streamWorkload{seed: seed, sz: sz}
}

type streamInstance struct {
	w       *streamWorkload
	pool    [][]float64            // event payloads, cycled through
	moments []analytics.MomentsObj // the oracle's moments of each payload
	rng     *rand.Rand             // draws every phase's event times
	phases  []*streamPhase         // the last repetition's phases, for verify
	exact   int                    // windows seen by verify; every exactEvery-th is re-run as a batch
	elems   []float64              // verify's buffer for a window's concatenated events
}

func (w *streamWorkload) build() (instance, error) {
	rng := rand.New(rand.NewSource(int64(w.seed)))
	pool := make([][]float64, w.sz.STPool)
	for i := range pool {
		pool[i] = make([]float64, w.sz.STEventElems)
		for j := range pool[i] {
			pool[i][j] = rng.Float64()
		}
	}
	return &streamInstance{w: w, pool: pool, rng: rng}, nil
}

func (s *streamInstance) close() {}

// streamPhase is one pipeline run: what was pushed and what came out.
type streamPhase struct {
	paced   bool
	times   []int64     // event time of the k-th pushed event
	created []time.Time // when it was created (paced: when it was due)
	fired   []firedWindow
	// accepted is the oracle's model of which events each window holds.
	accepted map[stream.Window][]int
	// sourceDone is when the source returned; panes received later were
	// fired by the end-of-stream flush, not by the watermark.
	sourceDone time.Time
}

type firedWindow struct {
	win     stream.Window
	events  int
	value   analytics.MomentsObj
	recv    time.Time
	latency time.Duration
	combine time.Duration
}

// eventTimes draws a phase's event times: event k carries time k, except
// that a share arrives out of order within the allowed lateness and a
// smaller share later than that.
func (s *streamInstance) eventTimes(n int) []int64 {
	times := make([]int64, n)
	for k := range times {
		d := 0
		switch r := s.rng.Float64(); {
		case r < stShareLateDrop:
			d = stLateDropOffset
		case r < stShareLateDrop+stShareLateOK:
			d = 1 + s.rng.Intn(stAllowedLate)
		}
		times[k] = int64(max(k-d, 0))
	}
	return times
}

func (s *streamInstance) runPhase(res *result, n int, paced bool) (*streamPhase, time.Duration, error) {
	rec := res.rec
	ph := &streamPhase{paced: paced, times: s.eventTimes(n), created: make([]time.Time, n)}
	comb, err := stream.NewSchedCombiner[float64](stream.SchedOptions[float64]{
		Build: func(int) (core.Analytics[float64, float64], error) { return analytics.NewMoments(0, 0), nil },
		Args:  core.SchedArgs{NumThreads: pinnedProcs, ChunkSize: 1},
		Result: func(sc *core.Scheduler[float64, float64], _ []float64) (any, error) {
			return *sc.CombinationMap()[0].(*analytics.MomentsObj), nil
		},
	})
	if err != nil {
		return nil, 0, err
	}
	// The combiner is timed from outside: a fire minus its combine is the
	// stream layer's own work.
	var combineStart time.Time
	var combineDur, firedInPush time.Duration
	timedComb := stream.CombinerFunc(func(ctx context.Context, w stream.Window, elems []float64) (any, error) {
		combineStart = time.Now()
		v, err := comb.Combine(ctx, w, elems)
		combineDur = time.Since(combineStart)
		if res.tracing() && err == nil {
			st := comb.Stats().Snapshot()
			res.observe("core.run_s", combineDur.Seconds())
			res.observe("core.reduction_cpu_s", st.ReductionTime.Seconds())
			res.observe("core.local_combine_s", st.LocalCombineTime.Seconds())
			res.observe("core.chunks", float64(st.ChunksProcessed))
			res.observe("core.max_live_redobjs", float64(st.MaxLiveRedObjs))
			res.observe("analytics.ns_per_elem", float64(st.ReductionTime.Nanoseconds())/float64(len(elems)))
		}
		return v, err
	})
	sink := stream.CallbackSink(func(r stream.WindowResult) error {
		recv := time.Now()
		if !r.Final {
			return fmt.Errorf("window [%d,%d) fired an early pane", r.Window.Start, r.Window.End)
		}
		ph.fired = append(ph.fired, firedWindow{win: r.Window, events: r.Events,
			value: r.Value.(analytics.MomentsObj), recv: recv, latency: r.Latency, combine: combineDur})
		firedInPush += r.Latency
		res.observe("stream.fire_s", r.Latency.Seconds())
		if rec != nil && !paced {
			fire := rec.add(0, 0, "stream", "fire (saturated)", recv.Add(-r.Latency), recv)
			rec.add(fire, 0, "core", "Combine (saturated)", combineStart, combineStart.Add(combineDur))
		}
		return nil
	})
	event := func(k int) stream.Event {
		return stream.Event{Time: ph.times[k], Data: s.pool[k%len(s.pool)]}
	}
	var late []time.Duration
	pace := newPacer(s.w.sz.STPacedRate)
	src := stream.SourceFunc(func(ctx context.Context, push func(stream.Event) error) error {
		defer func() { ph.sourceDone = time.Now() }()
		if paced {
			var err error
			late, err = pace.run(n, func(k int, due time.Time) error {
				ph.created[k] = due
				return push(event(k))
			})
			return err
		}
		for k := 0; k < n; k++ {
			ph.created[k] = time.Now()
			firedInPush = 0
			if err := push(event(k)); err != nil {
				return err
			}
			res.observe("stream.ingest_s", (time.Since(ph.created[k]) - firedInPush).Seconds())
		}
		return nil
	})
	start := time.Now()
	err = stream.New().From(src).
		Window(stream.Sliding(stWindowSize, stWindowSlide)).
		AllowedLateness(stAllowedLate).
		Combine(timedComb).
		To(sink).
		Run(context.Background())
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	ph.accepted = acceptedEvents(ph.times)
	if paced {
		for _, d := range late {
			res.observe("stream.gen_lateness_s", d.Seconds())
		}
		res.observe("stream.backlog_end", float64(pace.backlog(late)))
	}
	return ph, wall, nil
}

const lateDropCounter = `smart_stream_events_late_total{policy="drop"}`

func (s *streamInstance) rep(res *result) error {
	sz, rec := s.w.sz, res.rec
	dropped0 := counter(lateDropCounter)
	s.phases = nil
	windows := 0
	for i := 0; i < stSatPhases; i++ {
		sat, wall, err := s.runPhase(res, sz.STSatEvents, false)
		if err != nil {
			return err
		}
		res.work(sz.STSatEvents*sz.STEventElems, wall)
		s.phases = append(s.phases, sat)
		windows += len(sat.fired)
	}
	paced, _, err := s.runPhase(res, sz.STPacedEvents, true)
	if err != nil {
		return err
	}
	s.phases = append(s.phases, paced)
	res.observe("stream.windows", float64(windows+len(paced.fired)))
	res.observe("stream.events", float64(stSatPhases*sz.STSatEvents+sz.STPacedEvents))
	res.observe("stream.late_dropped", float64(counter(lateDropCounter)-dropped0))

	for _, f := range paced.fired {
		idx := paced.accepted[f.win]
		if len(idx) == 0 || f.recv.After(paced.sourceDone) {
			continue // verify reports the first; the second never waited for a watermark
		}
		last := paced.created[slices.Max(idx)]
		res.op(f.recv.Sub(last).Seconds())
		res.observe("stream.wm_wait_s", (f.recv.Sub(last) - f.latency).Seconds())
		if rec != nil {
			op := rec.newOp()
			root := rec.add(0, op, "stream", "watermark wait: allowed lateness at the paced rate", last, f.recv)
			fire := rec.add(root, op, "stream", "fire: order, concatenate, hand to sink", f.recv.Add(-f.latency), f.recv)
			// The combine ended when the fire did, give or take the handoff.
			rec.add(fire, op, "core", "Combine: RunWindowContext", f.recv.Add(-f.combine), f.recv)
		}
	}
	return nil
}

// acceptedEvents is the oracle's model of the pipeline's event-time rules,
// written out independently: a watermark trailing the largest time seen by
// the allowed lateness, sliding windows, and an event dropped from exactly
// those of its windows that the watermark has already closed. It returns,
// per window, the indices of the events it holds.
func acceptedEvents(times []int64) map[stream.Window][]int {
	byWindow := make(map[stream.Window][]int)
	maxSeen, wm := int64(math.MinInt64), int64(math.MinInt64)
	for k, t := range times {
		maxSeen = max(maxSeen, t)
		wm = max(wm, maxSeen-stAllowedLate)
		for start := t - stWindowSize + 1; start <= t; start++ {
			if ((start%stWindowSlide)+stWindowSlide)%stWindowSlide != 0 {
				continue
			}
			w := stream.Window{Start: start, End: start + stWindowSize}
			if w.End > wm {
				byWindow[w] = append(byWindow[w], k)
			}
		}
	}
	return byWindow
}

// exactEvery selects the windows verify re-runs as a one-shot batch on a
// fresh scheduler and compares byte for byte; every window is compared with
// merged per-event moments within 1e-9.
const exactEvery = 16

func (s *streamInstance) verify(res *result) {
	if s.moments == nil {
		s.moments = make([]analytics.MomentsObj, len(s.pool))
		for i, payload := range s.pool {
			for _, x := range payload {
				s.moments[i].Add(x)
			}
		}
	}
	for _, ph := range s.phases {
		accepted := ph.accepted
		seen := make(map[stream.Window]bool)
		for _, f := range ph.fired {
			if ph.paced {
				res.checked++ // only paced windows are ops
			}
			if seen[f.win] {
				res.fail("window [%d,%d) fired twice", f.win.Start, f.win.End)
				continue
			}
			seen[f.win] = true
			idx := accepted[f.win]
			// The pipeline's canonical order: event time, then arrival.
			sort.SliceStable(idx, func(a, b int) bool { return ph.times[idx[a]] < ph.times[idx[b]] })
			if diff := s.checkWindow(f, idx); diff != "" {
				res.fail("window [%d,%d): %s", f.win.Start, f.win.End, diff)
			}
		}
		for w, idx := range accepted {
			if len(idx) > 0 && !seen[w] {
				res.fail("window [%d,%d) holds %d events and never fired", w.Start, w.End, len(idx))
			}
		}
	}
	s.phases = nil
}

// checkWindow compares one fired window with the events the model says it
// holds; it returns what differs, or "".
func (s *streamInstance) checkWindow(f firedWindow, idx []int) string {
	if f.events != len(idx) {
		return fmt.Sprintf("%d events, reference holds %d", f.events, len(idx))
	}
	var want analytics.MomentsObj
	for _, k := range idx {
		want.Combine(&s.moments[k%len(s.pool)])
	}
	if f.value.N != want.N || !relClose(f.value.Mean, want.Mean, 1e-9) || !relClose(f.value.M2, want.M2, 1e-9) {
		return fmt.Sprintf("n=%d mean=%v m2=%v, reference n=%d mean=%v m2=%v",
			f.value.N, f.value.Mean, f.value.M2, want.N, want.Mean, want.M2)
	}
	s.exact++
	if s.exact%exactEvery != 0 {
		return ""
	}
	elems := s.elems[:0]
	for _, k := range idx {
		elems = append(elems, s.pool[k%len(s.pool)]...)
	}
	s.elems = elems
	batch, err := core.NewScheduler[float64, float64](analytics.NewMoments(0, 0),
		core.SchedArgs{NumThreads: pinnedProcs, ChunkSize: 1})
	if err == nil {
		err = batch.Run(elems, nil)
	}
	if err != nil {
		return fmt.Sprintf("batch reference: %v", err)
	}
	wantBytes, err1 := batch.CombinationMap()[0].MarshalBinary()
	gotBytes, err2 := f.value.MarshalBinary()
	if err1 != nil || err2 != nil || !bytes.Equal(gotBytes, wantBytes) {
		return "differs from a one-shot batch run over the same events"
	}
	return ""
}
