package main

import (
	"math"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/insitu"
	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/sim"
)

// kmeansWorkload is insitu-time-kmeans: insitu.TimeSharing couples a Heat3D
// simulation with k-means on the same threads. Every repetition starts a
// fresh simulation and scheduler from the seed, so all repetitions compute
// the same steps and one reference pass checks every op.
//
// op = one coupled time-step, simulation step plus analytics.
type kmeansWorkload struct {
	seed uint64
	sz   sizes
	ref  [][]float64 // reference centroids after each step, by the oracle
}

func newKMeansWorkload(seed uint64, sz sizes, _ string) workload {
	return &kmeansWorkload{seed: seed, sz: sz}
}

func (w *kmeansWorkload) build() (instance, error) {
	return &kmeansInstance{w: w}, nil
}

type kmeansInstance struct {
	w   *kmeansWorkload
	got [][]float64 // centroids after each step of the last repetition
}

func (k *kmeansInstance) close() {}

// initialCentroids spreads k centroids over Heat3D's value range (noise in
// [0,10) plus a bump of 100), the scheduler's extra data.
func (w *kmeansWorkload) initialCentroids() []float64 {
	init := make([]float64, w.sz.KMK*w.sz.KMDims)
	for c := 0; c < w.sz.KMK; c++ {
		for d := 0; d < w.sz.KMDims; d++ {
			init[c*w.sz.KMDims+d] = float64(c) * 110 / float64(w.sz.KMK)
		}
	}
	return init
}

func (w *kmeansWorkload) newSim(threads int) (*sim.Heat3D, error) {
	return sim.NewHeat3D(sim.Heat3DConfig{NX: w.sz.KMGrid, NY: w.sz.KMGrid, NZ: w.sz.KMGrid,
		Threads: threads, Seed: w.seed})
}

// opSim opens the op's root span at the start of every simulation step and
// times the step; the analytics callback closes the root.
type opSim struct {
	sim.Simulation
	rec      *recorder
	op, root int
}

func (s *opSim) Step() error {
	s.op = s.rec.newOp()
	s.root = s.rec.begin(0, s.op, otherLayer, "coupled step")
	id := s.rec.begin(s.root, s.op, "sim", "Step")
	err := s.Simulation.Step()
	s.rec.end(id)
	return err
}

// coupled runs one repetition's time-steps on the given thread count and
// returns the centroids after each step with the driver's own timings.
func (w *kmeansWorkload) coupled(res *result, threads int) ([][]float64, []insitu.StepTiming, time.Duration, error) {
	rec := res.rec
	heat, err := w.newSim(threads)
	if err != nil {
		return nil, nil, 0, err
	}
	app := analytics.NewKMeans(w.sz.KMK, w.sz.KMDims)
	sched, err := core.NewScheduler[float64, []float64](app, core.SchedArgs{
		NumThreads: threads, ChunkSize: w.sz.KMDims, NumIters: w.sz.KMIters, Extra: w.initialCentroids(),
	})
	if err != nil {
		return nil, nil, 0, err
	}
	traced := &opSim{Simulation: heat, rec: rec}
	var runSpan int
	var phases time.Duration
	if rec != nil {
		sched.SubscribeSpans(func(sp obs.Span) {
			rec.add(runSpan, traced.op, "core", sp.Name, sp.Start, sp.Start.Add(sp.Dur))
			if sp.Name != "convert" {
				phases += sp.Dur
			}
		})
	}
	var got [][]float64
	dims := w.sz.KMDims
	analyze := func(data []float64) error {
		data = data[:len(data)/dims*dims]
		phases = 0
		runSpan = rec.begin(traced.root, traced.op, "core", "Run (convert, other)")
		start := time.Now()
		err := sched.Run(data, nil)
		run := time.Since(start)
		rec.end(runSpan)
		if err != nil {
			return err
		}
		flat := make([]float64, 0, w.sz.KMK*dims)
		for _, c := range app.Centroids(sched.CombinationMap()) {
			flat = append(flat, c...)
		}
		got = append(got, flat)
		if res.tracing() {
			st := sched.Stats().Snapshot()
			res.observe("core.run_s", run.Seconds())
			res.observe("core.reduction_cpu_s", st.ReductionTime.Seconds())
			res.observe("core.local_combine_s", st.LocalCombineTime.Seconds())
			res.observe("core.convert_other_s", (run - phases).Seconds())
			res.observe("core.chunks", float64(st.ChunksProcessed))
			res.observe("core.max_live_redobjs", float64(st.MaxLiveRedObjs))
			res.observe("analytics.ns_per_elem", float64(st.ReductionTime.Nanoseconds())/float64(len(data)))
		}
		rec.end(traced.root)
		return nil
	}
	var s sim.Simulation = heat
	if rec != nil {
		s = traced
	}
	start := time.Now()
	timings, err := insitu.TimeSharing(s, analyze, insitu.TimeSharingConfig{Steps: w.sz.KMSteps})
	return got, timings, time.Since(start), err
}

func (k *kmeansInstance) rep(res *result) error {
	got, timings, wall, err := k.w.coupled(res, pinnedProcs)
	if err != nil {
		return err
	}
	k.got = got
	for _, t := range timings {
		res.op((t.Sim + t.Analytics).Seconds())
		res.observe("sim.step_s", t.Sim.Seconds())
		res.observe("insitu.analytics_s", t.Analytics.Seconds())
	}
	grid := k.w.sz.KMGrid
	res.work(len(timings)*grid*grid*grid, wall)
	return nil
}

// calibrate adds the two baselines the HPC sheet asks for: the bare
// simulation (overhead of coupling) and the same coupled steps on one thread
// (scaling efficiency t1 / (2 * t2)).
func (k *kmeansInstance) calibrate(res *result) error {
	heat, err := k.w.newSim(pinnedProcs)
	if err != nil {
		return err
	}
	var bare []float64
	for i := 0; i < k.w.sz.KMSteps; i++ {
		start := time.Now()
		if err := heat.Step(); err != nil {
			return err
		}
		end := time.Now()
		res.rec.add(0, 0, "sim", "bare Step", start, end)
		bare = append(bare, end.Sub(start).Seconds())
	}
	coupledOp := median(res.traced())
	res.observe("insitu.overhead", (coupledOp-median(bare))/median(bare))

	_, timings, _, err := k.w.coupled(&result{}, 1)
	if err != nil {
		return err
	}
	var single []float64
	for _, t := range timings {
		single = append(single, (t.Sim + t.Analytics).Seconds())
	}
	res.observe("core.scaling_eff", median(single)/(float64(pinnedProcs)*coupledOp))
	return nil
}

// reference is the oracle: the same simulation stepped on one thread, and
// Lloyd's algorithm written out plainly over each step's points.
func (w *kmeansWorkload) reference() ([][]float64, error) {
	heat, err := w.newSim(1)
	if err != nil {
		return nil, err
	}
	k, dims := w.sz.KMK, w.sz.KMDims
	cent := w.initialCentroids()
	var ref [][]float64
	sums := make([]float64, k*dims)
	counts := make([]int, k)
	for step := 0; step < w.sz.KMSteps; step++ {
		if err := heat.Step(); err != nil {
			return nil, err
		}
		data := heat.Data()
		for iter := 0; iter < w.sz.KMIters; iter++ {
			clear(sums)
			clear(counts)
			for p := 0; p+dims <= len(data); p += dims {
				best, bestD := 0, math.Inf(1)
				for c := 0; c < k; c++ {
					d := 0.0
					for i := 0; i < dims; i++ {
						diff := data[p+i] - cent[c*dims+i]
						d += diff * diff
					}
					if d < bestD {
						best, bestD = c, d
					}
				}
				for i := 0; i < dims; i++ {
					sums[best*dims+i] += data[p+i]
				}
				counts[best]++
			}
			for c := 0; c < k; c++ {
				if counts[c] == 0 {
					continue
				}
				for i := 0; i < dims; i++ {
					cent[c*dims+i] = sums[c*dims+i] / float64(counts[c])
				}
			}
		}
		ref = append(ref, append([]float64(nil), cent...))
	}
	return ref, nil
}

func (k *kmeansInstance) verify(res *result) {
	if k.w.ref == nil {
		ref, err := k.w.reference()
		if err != nil {
			res.fail("k-means reference: %v", err)
			return
		}
		k.w.ref = ref
	}
	for step, got := range k.got {
		res.checked++
		if diff := mismatch(got, k.w.ref[step], 1e-9); diff != "" {
			res.fail("k-means centroids after step %d: %s", step, diff)
		}
	}
	k.got = nil
}
