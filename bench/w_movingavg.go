package main

import (
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/insitu"
	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/sim"
)

// movingAvgWorkload is insitu-space-movingavg: insitu.SpaceSharing runs a
// Heat3D simulation on one thread feeding Scheduler.Feed while a moving
// average with early emission drains the circular buffer on the other. Like
// the k-means workload every repetition replays the same steps from the
// seed, so one reference pass checks every op.
//
// op = one step, from the call of Feed to RunShared2 returning its output.
type movingAvgWorkload struct {
	seed uint64
	sz   sizes
	ref  [][]float64 // reference moving averages per step, by the oracle
}

func newMovingAvgWorkload(seed uint64, sz sizes, _ string) workload {
	return &movingAvgWorkload{seed: seed, sz: sz}
}

func (w *movingAvgWorkload) newSim() (*sim.Heat3D, error) {
	return sim.NewHeat3D(sim.Heat3DConfig{NX: w.sz.MAGrid, NY: w.sz.MAGrid, NZ: w.sz.MAGrid,
		Threads: 1, Seed: w.seed})
}

func (w *movingAvgWorkload) build() (instance, error) {
	n := w.sz.MAGrid * w.sz.MAGrid * w.sz.MAGrid
	outs := make([][]float64, w.sz.MASteps)
	for i := range outs {
		outs[i] = make([]float64, n)
	}
	return &movingAvgInstance{w: w, outs: outs}, nil
}

type movingAvgInstance struct {
	w     *movingAvgWorkload
	outs  [][]float64 // one output array per step, reused by every repetition
	fresh bool        // outs hold a repetition that verify has not seen yet
}

func (m *movingAvgInstance) close() {}

// timedSim records how long every Step of the simulation took.
type timedSim struct {
	sim.Simulation
	starts []time.Time
	durs   []time.Duration
}

func (s *timedSim) Step() error {
	start := time.Now()
	err := s.Simulation.Step()
	s.starts = append(s.starts, start)
	s.durs = append(s.durs, time.Since(start))
	return err
}

func (m *movingAvgInstance) rep(res *result) error {
	sz, rec := m.w.sz, res.rec
	heat, err := m.w.newSim()
	if err != nil {
		return err
	}
	n := len(heat.Data())
	app := analytics.NewMovingAverage(sz.MAWindow, n, 0, true)
	sched, err := core.NewScheduler[float64, float64](app, core.SchedArgs{NumThreads: 1, ChunkSize: 1})
	if err != nil {
		return err
	}
	steps := sz.MASteps
	feedStart := make([]time.Time, steps)
	feedEnd := make([]time.Time, steps)
	runStart := make([]time.Time, steps)
	done := make([]time.Time, steps)
	type phase struct {
		step int
		span obs.Span
	}
	var phases []phase
	fed, consumed := 0, 0
	if rec != nil {
		sched.SubscribeSpans(func(sp obs.Span) { phases = append(phases, phase{consumed, sp}) })
	}
	feed := func(data []float64) error {
		feedStart[fed] = time.Now()
		err := sched.Feed(data)
		feedEnd[fed] = time.Now()
		fed++
		return err
	}
	consume := func() error {
		runStart[consumed] = time.Now()
		err := sched.RunShared2(m.outs[consumed])
		done[consumed] = time.Now()
		if res.tracing() && err == nil {
			st := sched.Stats().Snapshot()
			res.observe("core.run_s", done[consumed].Sub(runStart[consumed]).Seconds())
			res.observe("core.reduction_cpu_s", st.ReductionTime.Seconds())
			res.observe("core.local_combine_s", st.LocalCombineTime.Seconds())
			res.observe("core.chunks", float64(st.ChunksProcessed))
			res.observe("core.max_live_redobjs", float64(st.MaxLiveRedObjs))
			res.observe("core.emitted_early", float64(st.EmittedEarly))
			res.observe("analytics.ns_per_elem", float64(st.ReductionTime.Nanoseconds())/float64(n))
		}
		consumed++
		return err
	}
	var s sim.Simulation = heat
	timed := &timedSim{Simulation: heat}
	if res.tracing() {
		s = timed
	}
	m.fresh = true
	out, err := insitu.SpaceSharing(s, feed, consume, sched.CloseFeed, insitu.SpaceSharingConfig{Steps: steps})
	if err != nil {
		return err
	}
	for i := 0; i < steps; i++ {
		res.op(done[i].Sub(feedStart[i]).Seconds())
	}
	res.work(steps*n, out.Wall)

	if res.tracing() {
		perStep := func(d time.Duration) float64 { return d.Seconds() / float64(steps) }
		prodBlocked, consBlocked := sched.BufferBlockedTime()
		_, _, waits := sched.BufferStats()
		var inFeed time.Duration
		for i := range feedStart {
			inFeed += feedEnd[i].Sub(feedStart[i])
		}
		res.observe("ringbuf.producer_blocked_s", perStep(prodBlocked))
		res.observe("ringbuf.consumer_blocked_s", perStep(consBlocked))
		res.observe("ringbuf.producer_waits", float64(waits)/float64(steps))
		res.observe("ringbuf.feed_copy_s", perStep(inFeed-prodBlocked))
		res.observe("insitu.sim_busy_s", perStep(out.SimBusy))
		res.observe("insitu.analytics_busy_s", perStep(out.AnalyticsBusy))
		for _, d := range timed.durs {
			res.observe("sim.step_s", d.Seconds())
		}
	}
	if rec != nil {
		// The op crosses both tasks: Feed on the producer, the wait in the
		// circular buffer, RunShared2 on the consumer. They follow each other,
		// so their self times add up to the op.
		ops := make([]int, steps)
		runs := make([]int, steps)
		for i := 0; i < steps; i++ {
			ops[i] = rec.newOp()
			root := rec.add(0, ops[i], otherLayer, "step feed-in to result-out", feedStart[i], done[i])
			rec.add(root, ops[i], "ringbuf", "Feed (copy, blocked on full)", feedStart[i], feedEnd[i])
			if runStart[i].After(feedEnd[i]) {
				rec.add(root, ops[i], "ringbuf", "queued behind earlier steps", feedEnd[i], runStart[i])
			}
			runs[i] = rec.add(root, ops[i], "core", "RunShared2 (convert, other)", runStart[i], done[i])
			rec.add(0, 0, "sim", "Step", timed.starts[i], timed.starts[i].Add(timed.durs[i]))
		}
		for _, p := range phases {
			layer := "core"
			if p.span.Name == "read" {
				layer = "ringbuf"
			}
			rec.add(runs[p.step], ops[p.step], layer, p.span.Name, p.span.Start, p.span.Start.Add(p.span.Dur))
		}
	}
	return nil
}

// calibrate runs the bare simulation: the coupled step costs that much more.
func (m *movingAvgInstance) calibrate(res *result) error {
	heat, err := m.w.newSim()
	if err != nil {
		return err
	}
	var bare []float64
	for i := 0; i < m.w.sz.MASteps; i++ {
		start := time.Now()
		if err := heat.Step(); err != nil {
			return err
		}
		end := time.Now()
		res.rec.add(0, 0, "sim", "bare Step", start, end)
		bare = append(bare, end.Sub(start).Seconds())
	}
	coupled := median(res.layer["core.run_s"]) // the consumer's cadence sets the step rate
	res.observe("insitu.overhead", (coupled-median(bare))/median(bare))
	return nil
}

// reference is the oracle: the same simulation, and each window's mean
// summed directly.
func (w *movingAvgWorkload) reference() ([][]float64, error) {
	heat, err := w.newSim()
	if err != nil {
		return nil, err
	}
	half := w.sz.MAWindow / 2
	var ref [][]float64
	for step := 0; step < w.sz.MASteps; step++ {
		if err := heat.Step(); err != nil {
			return nil, err
		}
		data := heat.Data()
		out := make([]float64, len(data))
		for k := range out {
			lo, hi := max(k-half, 0), min(k+half, len(data)-1)
			sum := 0.0
			for _, v := range data[lo : hi+1] {
				sum += v
			}
			out[k] = sum / float64(hi-lo+1)
		}
		ref = append(ref, out)
	}
	return ref, nil
}

func (m *movingAvgInstance) verify(res *result) {
	if !m.fresh {
		return
	}
	m.fresh = false
	if m.w.ref == nil {
		ref, err := m.w.reference()
		if err != nil {
			res.fail("moving-average reference: %v", err)
			return
		}
		m.w.ref = ref
	}
	for step, out := range m.outs {
		res.checked++
		if diff := mismatch(out, m.w.ref[step], 1e-9); diff != "" {
			res.fail("moving average of step %d: %s", step, diff)
		}
		// A slot a later repetition fails to write must not pass on this
		// repetition's value.
		clear(out)
	}
}
