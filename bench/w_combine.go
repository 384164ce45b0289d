package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/codec"
	"github.com/scipioneer/smart/internal/core"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/obs"
)

// combineRanks is the world size of combine-wide-hist: one thread per rank
// keeps the load at two busy threads.
const combineRanks = 2

// combineWorkload is combine-wide-hist: two ranks on a TCP loopback mesh
// each reduce their share of a step into a wide histogram, then merge the
// two maps with an explicit GlobalCombine.
//
// op = one step at rank 0, from leaving the barrier to the converted output.
type combineWorkload struct {
	seed uint64
	sz   sizes
}

func newCombineWorkload(seed uint64, sz sizes, _ string) workload {
	return &combineWorkload{seed: seed, sz: sz}
}

type combineInstance struct {
	w      *combineWorkload
	comms  []*mpi.Comm
	scheds []*core.Scheduler[float64, int64]
	inputs [][][]float64 // [rank][input] elements, uniform in [0,1)
	ref    [][]int64     // [input] bucket counts over both ranks' elements
	outs   [][]int64     // [rank] converted output
	step   int           // steps run so far; selects the input

	// rec, op, parent and phases carry rank 0's tracing state into the span
	// subscriber, which runs on rank 0's goroutine.
	rec        *recorder
	op, parent int
	phases     time.Duration
}

func (w *combineWorkload) build() (instance, error) {
	sz := w.sz
	comms, err := mpi.NewTCPWorld(combineRanks)
	if err != nil {
		return nil, err
	}
	c := &combineInstance{w: w, comms: comms}
	app := analytics.NewHistogram(0, 1, sz.CHBuckets)
	width := 1 / float64(sz.CHBuckets) // the histogram's own bucket rule, over [0,1)
	c.ref = make([][]int64, sz.CHInputs)
	for t := range c.ref {
		c.ref[t] = make([]int64, sz.CHBuckets)
	}
	for rank := 0; rank < combineRanks; rank++ {
		rng := rand.New(rand.NewSource(int64(w.seed)*combineRanks + int64(rank)))
		inputs := make([][]float64, sz.CHInputs)
		for t := range inputs {
			inputs[t] = make([]float64, sz.CHElems)
			for i := range inputs[t] {
				v := rng.Float64()
				inputs[t][i] = v
				c.ref[t][min(int(v/width), sz.CHBuckets-1)]++
			}
		}
		c.inputs = append(c.inputs, inputs)
		sched, err := core.NewScheduler[float64, int64](app, core.SchedArgs{
			NumThreads: 1, ChunkSize: 1, Comm: comms[rank],
		})
		if err != nil {
			c.close()
			return nil, err
		}
		if rank == 0 {
			sched.SubscribeSpans(c.onSpan)
		}
		c.scheds = append(c.scheds, sched)
		c.outs = append(c.outs, make([]int64, sz.CHBuckets))
	}
	return c, nil
}

func (c *combineInstance) onSpan(sp obs.Span) {
	if c.rec == nil {
		return
	}
	name := sp.Name
	if name == "global combine" {
		name = "global combine (encode, codec, wire, decode, merge)"
	} else if name != "convert" {
		c.phases += sp.Dur
	}
	c.rec.add(c.parent, c.op, "core", name, sp.Start, sp.Start.Add(sp.Dur))
}

func (c *combineInstance) close() {
	for _, comm := range c.comms {
		comm.Close()
	}
}

const (
	wireRawCounter     = `smart_mpi_wire_bytes_raw_total{transport="tcp"}`
	wireEncodedCounter = `smart_mpi_wire_bytes_encoded_total{transport="tcp"}`
	messagesCounter    = `smart_mpi_messages_total{transport="tcp",dir="send"}`
)

func (c *combineInstance) rep(res *result) error {
	steps := c.w.sz.CHSteps
	c.rec = res.rec
	raw0, enc0, msg0 := counter(wireRawCounter), counter(wireEncodedCounter), counter(messagesCounter)
	errs := make([]error, combineRanks)
	var wg sync.WaitGroup
	start := time.Now()
	for rank := 0; rank < combineRanks; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[rank] = c.runRank(rank, steps, res); errs[rank] != nil {
				// The peer is blocked in a collective with this rank.
				c.comms[rank].Close()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	c.step += steps
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	res.work(steps*combineRanks*c.w.sz.CHElems, wall)
	perStep := func(delta int64) float64 { return float64(delta) / float64(steps) }
	res.observe("mpi.wire_raw_bytes", perStep(counter(wireRawCounter)-raw0))
	res.observe("mpi.wire_encoded_bytes", perStep(counter(wireEncodedCounter)-enc0))
	res.observe("mpi.messages", perStep(counter(messagesCounter)-msg0))
	return nil
}

// runRank is one rank's share of a repetition. Only rank 0 touches res and
// the recorder.
func (c *combineInstance) runRank(rank, steps int, res *result) error {
	sched, comm, out := c.scheds[rank], c.comms[rank], c.outs[rank]
	root := rank == 0
	for i := 0; i < steps; i++ {
		input := (c.step + i) % c.w.sz.CHInputs
		if err := comm.Barrier(); err != nil {
			return fmt.Errorf("rank %d barrier: %w", rank, err)
		}
		var rootSpan, runSpan int
		if root && c.rec != nil {
			c.op = c.rec.newOp()
			rootSpan = c.rec.begin(0, c.op, otherLayer, "step barrier to output")
			runSpan = c.rec.begin(rootSpan, c.op, "core", "Run, local (other)")
			c.parent, c.phases = runSpan, 0
		}
		t0 := time.Now()
		clear(out) // conversion only writes the buckets that hold a count
		sched.ResetCombinationMap()
		sched.SetGlobalCombination(false)
		if err := sched.Run(c.inputs[rank][input], nil); err != nil {
			return fmt.Errorf("rank %d run: %w", rank, err)
		}
		t1 := time.Now()
		var local core.Stats
		if root && res.tracing() {
			c.rec.end(runSpan)
			c.parent = c.rec.begin(rootSpan, c.op, "core", "GlobalCombine (convert, other)")
			local = sched.Stats().Snapshot()
		}
		sched.SetGlobalCombination(true)
		if err := sched.GlobalCombine(out); err != nil {
			return fmt.Errorf("rank %d global combine: %w", rank, err)
		}
		t2 := time.Now()
		if !root {
			continue
		}
		res.op(t2.Sub(t0).Seconds())
		if res.tracing() {
			c.rec.end(c.parent)
			c.rec.end(rootSpan)
			st := sched.Stats().Snapshot()
			res.observe("core.run_s", t1.Sub(t0).Seconds())
			res.observe("core.reduction_cpu_s", local.ReductionTime.Seconds())
			res.observe("core.local_combine_s", local.LocalCombineTime.Seconds())
			res.observe("core.global_combine_s", st.GlobalCombineTime.Seconds())
			res.observe("core.convert_other_s", (t2.Sub(t0) - st.GlobalCombineTime - c.phases).Seconds())
			res.observe("core.chunks", float64(local.ChunksProcessed))
			res.observe("core.max_live_redobjs", float64(local.MaxLiveRedObjs))
			res.observe("core.serialized_bytes", float64(st.SerializedBytes))
			res.observe("analytics.ns_per_elem", float64(local.ReductionTime.Nanoseconds())/float64(c.w.sz.CHElems))
		}
		// Oracle, outside the op: the merged counts equal the reference count
		// of both ranks' elements and so sum to the elements analysed.
		res.checked++
		want := c.ref[input]
		for b := range want {
			if out[b] != want[b] {
				res.fail("histogram step %d bucket %d: got %d, reference %d", c.step+i, b, out[b], want[b])
				break
			}
		}
	}
	return nil
}

func (c *combineInstance) verify(*result) {} // rep checks every step as it completes

// calibrationRounds is how often calibrate repeats each single-layer call.
const calibrationRounds = 5

// calibrate times the layers inside global combination one at a time on the
// payload a step really ships: the encoded map, its decode-and-merge, the
// negotiated codec, and an allreduce of that size on the same mesh.
func (c *combineInstance) calibrate(res *result) error {
	timed := func(layer, name, metric string, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		res.rec.add(0, 0, layer, name, start, end)
		res.observe(metric, end.Sub(start).Seconds())
		return err
	}
	holder, err := core.NewScheduler[float64, int64](analytics.NewHistogram(0, 1, c.w.sz.CHBuckets),
		core.SchedArgs{NumThreads: 1, ChunkSize: 1})
	if err != nil {
		return err
	}
	var payload []byte
	enc := c.comms[0].WireEncoding(1)
	for i := 0; i < calibrationRounds; i++ {
		if err := timed("core", "EncodeCombinationMap", "core.encode_s", func() (err error) {
			payload, err = c.scheds[0].EncodeCombinationMap()
			return err
		}); err != nil {
			return err
		}
		if err := timed("core", "MergeEncodedCombinationMap", "core.decode_merge_s", func() error {
			return holder.MergeEncodedCombinationMap(payload)
		}); err != nil {
			return err
		}
		if enc == codec.None {
			continue
		}
		var wire []byte
		if err := timed("codec", "Encode "+enc.String(), "codec.encode_s", func() (err error) {
			wire, err = codec.Encode(enc, nil, payload)
			return err
		}); err != nil {
			return err
		}
		if err := timed("codec", "Decode "+enc.String(), "codec.decode_s", func() error {
			_, err := codec.Decode(enc, nil, wire)
			return err
		}); err != nil {
			return err
		}
		res.observe("codec.ratio", float64(len(payload))/float64(len(wire)))
	}
	if enc == codec.None {
		res.observe("codec.ratio", 1)
	}

	keepFirst := func(a, _ []byte) ([]byte, error) { return a, nil }
	errs := make([]error, combineRanks)
	var wg sync.WaitGroup
	for rank := 1; rank < combineRanks; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calibrationRounds && errs[rank] == nil; i++ {
				_, errs[rank] = c.comms[rank].Allreduce(payload, keepFirst)
			}
		}()
	}
	for i := 0; i < calibrationRounds && errs[0] == nil; i++ {
		errs[0] = timed("mpi", "Allreduce of the encoded map's size", "mpi.allreduce_s", func() error {
			_, err := c.comms[0].Allreduce(payload, keepFirst)
			return err
		})
	}
	if errs[0] != nil {
		c.comms[0].Close()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("calibration allreduce: %w", err)
		}
	}
	return nil
}
