package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"github.com/scipioneer/smart/internal/obs"
)

// TestRunRecordsPhaseSpansAndMetrics runs a scheduler against a private
// Observer and checks the span counters, latency histograms, and core
// metrics land in its registry.
func TestRunRecordsPhaseSpansAndMetrics(t *testing.T) {
	o := obs.New()
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{
		NumThreads: 2, ChunkSize: 1, NumIters: 3, Obs: o,
	})
	if err := s.Run(histInput(500), make([]int64, 10)); err != nil {
		t.Fatal(err)
	}

	r := o.Registry()
	if got := r.Counter(obs.SpanCounterName("reduction")).Value(); got != 3 {
		t.Fatalf("reduction spans = %d, want 3 (one per iteration)", got)
	}
	if got := r.Counter(obs.SpanCounterName("local combine")).Value(); got != 3 {
		t.Fatalf("local combine spans = %d, want 3", got)
	}
	if got := r.Counter(obs.SpanCounterName("convert")).Value(); got != 1 {
		t.Fatalf("convert spans = %d, want 1", got)
	}
	if got := r.Counter(obs.SpanCounterName("global combine")).Value(); got != 0 {
		t.Fatalf("global combine spans without a communicator = %d, want 0", got)
	}
	if h := r.Histogram(obs.SpanSecondsName("reduction"), obs.DurationBuckets); h.Count() != 3 {
		t.Fatalf("reduction latency samples = %d, want 3", h.Count())
	}
	// 500 single-key chunks per iteration, 3 iterations.
	if got := r.Counter("smart_core_keys_touched_total").Value(); got != 1500 {
		t.Fatalf("keys touched = %d, want 1500", got)
	}
	// Reduction-map sizes are sampled per thread per iteration.
	if h := r.Histogram("smart_core_redmap_entries", obs.SizeBuckets); h.Count() != 6 {
		t.Fatalf("redmap size samples = %d, want 6", h.Count())
	}
	if got := r.Counter("smart_core_runs_total").Value(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
	if peak := r.Gauge("smart_core_live_redobjs").Peak(); peak <= 0 {
		t.Fatalf("live redobj peak = %d, want > 0", peak)
	}
}

// TestSubscribeSpansPerPhase checks the subscriber stream carries one span
// per phase per iteration, with non-negative durations, from the
// coordinating goroutine.
func TestSubscribeSpansPerPhase(t *testing.T) {
	events := map[string]int{}
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{
		NumThreads: 2, ChunkSize: 1, NumIters: 3, Obs: obs.New(),
	})
	s.SubscribeSpans(func(sp obs.Span) {
		if sp.Dur < 0 {
			t.Errorf("negative duration for %s", sp.Name)
		}
		events[sp.Name]++
	})
	if err := s.Run(histInput(500), make([]int64, 10)); err != nil {
		t.Fatal(err)
	}
	if events["reduction"] != 3 || events["local combine"] != 3 {
		t.Fatalf("per-iteration phases: %v", events)
	}
	if events["convert"] != 1 {
		t.Fatalf("convert events: %v", events)
	}
	if events["global combine"] != 0 {
		t.Fatalf("global combine without a communicator: %v", events)
	}
}

// TestSpaceSharingEmitsReadAndFeedSpans drives the Feed/RunShared path and
// checks the previously-unreported phases now show up: "feed" on the
// observer (producer side) and "read" on the full span stream (consumer
// side, so SubscribeSpans subscribers see it too).
func TestSpaceSharingEmitsReadAndFeedSpans(t *testing.T) {
	o := obs.New()
	phases := map[string]int{}
	var mu sync.Mutex
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 1, BufferCells: 2, Obs: o,
	})
	s.SubscribeSpans(func(sp obs.Span) {
		mu.Lock()
		phases[sp.Name]++
		mu.Unlock()
	})

	const steps = 3
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < steps; i++ {
			if err := s.Feed(histInput(50)); err != nil {
				t.Error(err)
				return
			}
		}
		s.CloseFeed()
	}()
	out := make([]int64, 10)
	for {
		err := s.RunShared(out)
		if err == ErrFeedClosed {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	if phases["read"] != steps {
		t.Fatalf("subscriber read events = %d, want %d", phases["read"], steps)
	}
	r := o.Registry()
	if got := r.Counter(obs.SpanCounterName("feed")).Value(); got != steps {
		t.Fatalf("feed spans = %d, want %d", got, steps)
	}
	if got := r.Counter(obs.SpanCounterName("read")).Value(); got != steps {
		t.Fatalf("read spans = %d, want %d", got, steps)
	}
}

// TestTraceFileFromScheduler runs with a trace writer attached and checks
// the JSONL stream replays the phase sequence.
func TestTraceFileFromScheduler(t *testing.T) {
	o := obs.New()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	o.SetTraceWriter(w)
	s := MustNewScheduler[int, int64](bucketApp{width: 10}, SchedArgs{
		NumThreads: 1, ChunkSize: 1, NumIters: 1, Obs: o,
	})
	if err := s.Run(histInput(200), make([]int64, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Cat   string `json:"cat"`
			Name  string `json:"name"`
			DurNS int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Cat != "core" || ev.DurNS < 0 {
			t.Fatalf("bad event: %+v", ev)
		}
		names = append(names, ev.Name)
	}
	want := []string{"reduction", "local combine", "convert"}
	if len(names) != len(want) {
		t.Fatalf("trace phases = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("trace phases = %v, want %v", names, want)
		}
	}
}
