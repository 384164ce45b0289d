package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/scipioneer/smart/internal/analytics"
	"github.com/scipioneer/smart/internal/core"
)

// stepEvents builds deterministic per-step events: one event per time in
// times, each with elemsPer elements drawn from a fixed integer formula.
func stepEvents(times []int64, elemsPer int) []Event {
	evs := make([]Event, len(times))
	for i, t := range times {
		data := make([]float64, elemsPer)
		for j := range data {
			data[j] = float64((int(t)*31+j*7)%101)/10 - 5
		}
		evs[i] = Event{Time: t, Data: data}
	}
	return evs
}

// oracleVal is what the oracle combiners return per pane: the encoded
// combination map (the byte-identity evidence) plus the converted output.
type oracleVal struct {
	enc []byte
	out any
}

// expectedWindows recomputes, outside the streaming machinery, which
// windows the events form and each window's elements in canonical
// (time, ingest-sequence) order. Events are assumed on time (no lateness).
func expectedWindows(spec WindowSpec, evs []Event) map[Window][]float64 {
	type slot struct {
		t   int64
		seq int
		d   []float64
	}
	buf := map[Window][]slot{}
	if spec.Kind == KindSession {
		// Merge seed intervals into sessions.
		sorted := append([]Event(nil), evs...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
		var sessions []Window
		for _, ev := range sorted {
			seed := Window{Start: ev.Time, End: ev.Time + spec.Gap}
			if n := len(sessions); n > 0 && sessions[n-1].overlaps(seed) {
				if seed.End > sessions[n-1].End {
					sessions[n-1].End = seed.End
				}
			} else {
				sessions = append(sessions, seed)
			}
		}
		for seq, ev := range evs {
			for _, s := range sessions {
				if ev.Time >= s.Start && ev.Time < s.End {
					buf[s] = append(buf[s], slot{ev.Time, seq, ev.Data})
				}
			}
		}
	} else {
		for seq, ev := range evs {
			for _, w := range spec.Assign(ev.Time, nil) {
				buf[w] = append(buf[w], slot{ev.Time, seq, ev.Data})
			}
		}
	}
	out := map[Window][]float64{}
	for w, slots := range buf {
		sort.SliceStable(slots, func(i, j int) bool {
			if slots[i].t != slots[j].t {
				return slots[i].t < slots[j].t
			}
			return slots[i].seq < slots[j].seq
		})
		var elems []float64
		for _, s := range slots {
			elems = append(elems, s.d...)
		}
		out[w] = elems
	}
	return out
}

// runOracle streams evs through a one-stage pipeline and checks every fired
// window against a brute-force batch recomputation: same window set, and
// per window a byte-identical combination map plus equal converted output
// from a fresh serial-pipeline scheduler (one combine shard, the same thread
// count, so FP partials group identically) over exactly that window's
// elements.
func runOracle[Out any](t *testing.T, opts SchedOptions[Out], spec WindowSpec, evs []Event) {
	t.Helper()
	opts.Result = func(s *core.Scheduler[float64, Out], out []Out) (any, error) {
		enc, err := s.EncodeCombinationMap()
		if err != nil {
			return nil, err
		}
		return oracleVal{enc: enc, out: append([]Out(nil), out...)}, nil
	}
	comb, err := NewSchedCombiner(opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []WindowResult
	err = New().
		From(SliceSource(evs)).
		Window(spec).
		Combine(comb).
		To(CallbackSink(func(res WindowResult) error { got = append(got, res); return nil })).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	want := expectedWindows(spec, evs)
	if len(got) != len(want) {
		t.Fatalf("fired %d windows, want %d", len(got), len(want))
	}
	seen := map[Window]bool{}
	for _, res := range got {
		if !res.Final {
			t.Fatalf("window %+v fired a non-final pane without a trigger", res.Window)
		}
		if seen[res.Window] {
			t.Fatalf("window %+v fired twice", res.Window)
		}
		seen[res.Window] = true
		elems, ok := want[res.Window]
		if !ok {
			t.Fatalf("unexpected window %+v", res.Window)
		}
		if res.Elems != len(elems) {
			t.Fatalf("window %+v combined %d elements, want %d", res.Window, res.Elems, len(elems))
		}

		// Brute-force batch run over exactly this window's elements.
		app, err := opts.Build(len(elems))
		if err != nil {
			t.Fatal(err)
		}
		serial := opts.Args
		serial.CombineShards = 1
		fresh := core.MustNewScheduler[float64, Out](app, serial)
		outLen := 0
		if opts.OutLen != nil {
			outLen = opts.OutLen(len(elems))
		}
		out := make([]Out, outLen)
		if err := fresh.Run(elems, out); err != nil {
			t.Fatal(err)
		}
		enc, err := fresh.EncodeCombinationMap()
		if err != nil {
			t.Fatal(err)
		}
		val := res.Value.(oracleVal)
		if !bytes.Equal(val.enc, enc) {
			t.Errorf("window %+v: streamed combination map differs from batch run", res.Window)
		}
		if !reflect.DeepEqual(val.out, out) {
			t.Errorf("window %+v: streamed output differs from batch run", res.Window)
		}
	}
}

func histOpts(args core.SchedArgs) SchedOptions[int64] {
	return SchedOptions[int64]{
		Build: func(int) (core.Analytics[float64, int64], error) {
			return analytics.NewHistogram(-5, 6, 11), nil
		},
		Args:   args,
		OutLen: func(int) int { return 11 },
	}
}

func momentsOpts(args core.SchedArgs) SchedOptions[float64] {
	const gs = 16
	return SchedOptions[float64]{
		Build: func(int) (core.Analytics[float64, float64], error) {
			return analytics.NewMoments(gs, 0), nil
		},
		Args:   args,
		OutLen: func(n int) int { return (n + gs - 1) / gs },
	}
}

func movingAvgOpts(args core.SchedArgs) SchedOptions[float64] {
	return SchedOptions[float64]{
		Build: func(n int) (core.Analytics[float64, float64], error) {
			return analytics.NewMovingAverage(5, n, 0, true), nil
		},
		Args:    args,
		PerSize: true,
		OutLen:  func(n int) int { return n },
	}
}

// TestOracle pins the acceptance criterion: every fired window, under every
// window kind and app, is byte-identical to a one-shot batch Scheduler run
// over exactly that window's elements.
func TestOracle(t *testing.T) {
	inOrder := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	gappy := []int64{0, 1, 2, 3, 10, 11, 20, 27, 28, 29}
	specs := []struct {
		name  string
		spec  WindowSpec
		times []int64
	}{
		{"tumbling", Tumbling(4), inOrder},
		{"sliding", Sliding(4, 2), inOrder},
		{"session", Session(3), gappy},
	}
	args := core.SchedArgs{NumThreads: 2, ChunkSize: 1, NumIters: 1, CombineShards: 4}
	for _, sc := range specs {
		evs := stepEvents(sc.times, 64)
		t.Run("histogram/"+sc.name, func(t *testing.T) { runOracle(t, histOpts(args), sc.spec, evs) })
		t.Run("moments/"+sc.name, func(t *testing.T) { runOracle(t, momentsOpts(args), sc.spec, evs) })
		t.Run("movingavg/"+sc.name, func(t *testing.T) { runOracle(t, movingAvgOpts(args), sc.spec, evs) })
	}
}

// TestGlobalWindow: the batch special case — one window, fired at end of
// stream.
func TestGlobalWindow(t *testing.T) {
	evs := stepEvents([]int64{0, 1, 2}, 32)
	var got []WindowResult
	comb := CombinerFunc(func(_ context.Context, w Window, elems []float64) (any, error) {
		return len(elems), nil
	})
	err := New().
		From(SliceSource(evs)).
		Window(Global()).
		Combine(comb).
		To(CallbackSink(func(res WindowResult) error { got = append(got, res); return nil })).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value.(int) != 96 || !got[0].Final {
		t.Fatalf("global window results %+v", got)
	}
}

// TestTwoStagePipeline chains grid aggregation into a histogram through
// ThenMap — the shape the serve registry's pipeline-grid job compiles to —
// and checks the final histogram equals a hand-computed one.
func TestTwoStagePipeline(t *testing.T) {
	const elems, gs = 64, 16
	evs := stepEvents([]int64{0, 1, 2, 3}, elems)
	gridComb, err := NewSchedCombiner(SchedOptions[float64]{
		Build: func(int) (core.Analytics[float64, float64], error) {
			return analytics.NewGridAgg(gs, 0), nil
		},
		Args:   core.SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1},
		OutLen: func(n int) int { return (n + gs - 1) / gs },
	})
	if err != nil {
		t.Fatal(err)
	}
	histComb := CombinerFunc(func(_ context.Context, w Window, elems []float64) (any, error) {
		lo, hi := elems[0], elems[0]
		for _, v := range elems {
			lo, hi = min(lo, v), max(hi, v)
		}
		if hi <= lo {
			hi = lo + 1
		}
		s := core.MustNewScheduler[float64, int64](analytics.NewHistogram(lo, hi, 8),
			core.SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1})
		out := make([]int64, 8)
		if err := s.Run(elems, out); err != nil {
			return nil, err
		}
		return out, nil
	})
	var got []WindowResult
	err = New().
		From(SliceSource(evs)).
		Window(Tumbling(1)).
		Combine(gridComb).
		ThenMap(func(res WindowResult) (Event, bool) {
			return Event{Time: res.Window.Start, Data: res.Value.([]float64)}, true
		}).
		Window(Global()).
		Combine(histComb).
		To(CallbackSink(func(res WindowResult) error { got = append(got, res); return nil })).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("fired %d final windows, want 1", len(got))
	}
	// 4 steps × 4 cells of grid means feed the global histogram.
	if got[0].Elems != 16 {
		t.Fatalf("second stage combined %d elements, want 16", got[0].Elems)
	}
	var total int64
	for _, n := range got[0].Value.([]int64) {
		total += n
	}
	if total != 16 {
		t.Fatalf("histogram counted %d means, want 16", total)
	}
}

// TestCountTrigger: early panes fire every N elements, then the final
// on-watermark pane carries the complete window.
func TestCountTrigger(t *testing.T) {
	evs := stepEvents([]int64{0, 1, 2, 3}, 32) // one tumbling window of 128 elems
	var panes []WindowResult
	comb := CombinerFunc(func(_ context.Context, w Window, elems []float64) (any, error) {
		return len(elems), nil
	})
	err := New().
		From(SliceSource(evs)).
		Window(Tumbling(4)).
		Trigger(Trigger{EveryCount: 50}).
		Combine(comb).
		To(CallbackSink(func(res WindowResult) error { panes = append(panes, res); return nil })).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 128 elements cross the 50-element threshold after 64 and 128 buffered.
	if len(panes) != 3 {
		t.Fatalf("fired %d panes, want 3 (2 early + final): %+v", len(panes), panes)
	}
	if panes[0].Final || panes[0].Value.(int) != 64 || panes[0].Pane != 0 {
		t.Fatalf("first early pane %+v", panes[0])
	}
	if panes[1].Final || panes[1].Value.(int) != 128 || panes[1].Pane != 1 {
		t.Fatalf("second early pane %+v", panes[1])
	}
	last := panes[2]
	if !last.Final || last.Value.(int) != 128 || last.Pane != 2 {
		t.Fatalf("final pane %+v", last)
	}
}

// TestEarlyEmitForwarding: the runtime's per-key triggered emissions flow
// through the combiner to the pipeline's OnEmit callback, tagged with the
// firing window.
func TestEarlyEmitForwarding(t *testing.T) {
	evs := stepEvents([]int64{0, 1}, 64)
	comb, err := NewSchedCombiner(movingAvgOpts(core.SchedArgs{NumThreads: 1, ChunkSize: 1, NumIters: 1}))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	emits := map[Window]int{}
	err = New().
		From(SliceSource(evs)).
		Window(Tumbling(1)).
		Trigger(Trigger{EarlyEmits: true}).
		Combine(comb).
		OnEmit(func(w Window, key int, value any) {
			mu.Lock()
			emits[w]++
			mu.Unlock()
		}).
		To(CallbackSink(func(WindowResult) error { return nil })).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(emits) != 2 {
		t.Fatalf("early emissions tagged %d windows, want 2: %v", len(emits), emits)
	}
	for w, n := range emits {
		// The moving average triggers every interior window of the step.
		if n == 0 {
			t.Fatalf("window %+v forwarded no emissions", w)
		}
	}
}

// TestNDJSONSink pins the line format smartd's standing queries emit.
func TestNDJSONSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NDJSONSink(&buf)
	if err := sink.Emit(WindowResult{
		Window: Window{Start: 4, End: 8}, Pane: 1, Final: true,
		Events: 4, Elems: 256, Value: []int64{1, 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]any{
		"type": "window", "start": 4.0, "end": 8.0, "pane": 1.0,
		"final": true, "events": 4.0, "elems": 256.0,
	} {
		if rec[k] != want {
			t.Fatalf("field %q = %v, want %v (line %s)", k, rec[k], want, buf.String())
		}
	}
}

// TestReplaySource round-trips events through the NDJSON replay format,
// including out-of-order times.
func TestReplaySource(t *testing.T) {
	ndjson := strings.Join([]string{
		`{"t":0,"data":[1,2]}`,
		``,
		`{"t":2,"data":[3]}`,
		`{"t":1,"data":[4]}`,
	}, "\n")
	var got []Event
	err := Replay(strings.NewReader(ndjson)).Feed(context.Background(), func(ev Event) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{0, []float64{1, 2}}, {2, []float64{3}}, {1, []float64{4}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
}

// TestGeneratorDeterministicResume: a generator started at step k replays
// exactly the suffix of the full stream — the property standing-query
// resume depends on.
func TestGeneratorDeterministicResume(t *testing.T) {
	collect := func(cfg GeneratorConfig) []Event {
		var evs []Event
		if err := Generator(cfg).Feed(context.Background(), func(ev Event) error {
			evs = append(evs, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	full := collect(GeneratorConfig{Steps: 6, StepElems: 32, Seed: 7})
	tail := collect(GeneratorConfig{Steps: 3, StepElems: 32, Seed: 7, StartStep: 3})
	if !reflect.DeepEqual(full[3:], tail) {
		t.Fatal("resumed generator diverged from the original stream")
	}
}

// TestBuilderErrors: builder misuse surfaces as one latched error from Run.
func TestBuilderErrors(t *testing.T) {
	sinkOK := CallbackSink(func(WindowResult) error { return nil })
	comb := CombinerFunc(func(_ context.Context, _ Window, _ []float64) (any, error) { return nil, nil })
	cases := map[string]*Pipeline{
		"no source":      New().Window(Tumbling(2)).Combine(comb).To(sinkOK),
		"no stage":       New().From(SliceSource(nil)).To(sinkOK),
		"no sink":        New().From(SliceSource(nil)).Window(Tumbling(2)).Combine(comb),
		"bad window":     New().From(SliceSource(nil)).Window(Tumbling(0)).Combine(comb).To(sinkOK),
		"bad slide":      New().From(SliceSource(nil)).Window(Sliding(2, 3)).Combine(comb).To(sinkOK),
		"dangling stage": New().From(SliceSource(nil)).Window(Tumbling(2)).Combine(comb).Window(Tumbling(4)).Combine(comb).To(sinkOK),
		"early no-sched": New().From(SliceSource(nil)).Window(Tumbling(2)).Trigger(Trigger{EarlyEmits: true}).Combine(comb).To(sinkOK),
		"negative late":  New().From(SliceSource(nil)).Window(Tumbling(2)).Combine(comb).AllowedLateness(-1).To(sinkOK),
		"trigger no win": New().Trigger(Trigger{EveryCount: 5}),
		"combine no win": New().Combine(comb),
		"inner count":    New().From(SliceSource(nil)).Window(Tumbling(2)).Trigger(Trigger{EveryCount: 1}).Combine(comb).ThenMap(func(WindowResult) (Event, bool) { return Event{}, false }).Window(Global()).Combine(comb).To(sinkOK),
	}
	for name, p := range cases {
		if err := p.Run(context.Background()); err == nil {
			t.Errorf("%s: Run succeeded", name)
		}
	}
}
