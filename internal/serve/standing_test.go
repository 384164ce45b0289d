package serve

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scipioneer/smart/internal/obs"
)

// collectRecords subscribes to a job's stream and accumulates every record
// until the hub closes; the returned func waits for that and hands the
// records back.
func collectRecords(j *Job) func() []StreamRecord {
	replay, ch, _ := j.hub.subscribe()
	var mu sync.Mutex
	recs := append([]StreamRecord(nil), replay...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rec := range ch {
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		}
	}()
	return func() []StreamRecord {
		<-done
		mu.Lock()
		defer mu.Unlock()
		return recs
	}
}

// TestStandingJobRunsToCompletion: a standing histogram query fires one
// window record per tumbling window, in order, each final with the batch
// builders' result shape, then finishes with a standing summary result.
func TestStandingJobRunsToCompletion(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(JobSpec{
		App: "histogram", Kind: KindStanding, Steps: 8, Elems: 2048, Seed: 42,
		Params: Params{WindowSize: 2, Buckets: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(j)
	waitStatus(t, j, StatusDone, 30*time.Second)

	var windows []StreamRecord
	steps := 0
	for _, rec := range recs() {
		switch rec.Type {
		case "window":
			windows = append(windows, rec)
		case "step":
			steps++
		}
	}
	if steps != 8 {
		t.Errorf("stream carried %d step records, want 8", steps)
	}
	if len(windows) != 4 {
		t.Fatalf("stream carried %d window records, want 4: %+v", len(windows), windows)
	}
	for i, w := range windows {
		if !w.Final {
			t.Errorf("window %d not final: %+v", i, w)
		}
		if w.WinStart != int64(i*2) || w.WinEnd != int64(i*2+2) {
			t.Errorf("window %d spans [%d,%d), want [%d,%d)", i, w.WinStart, w.WinEnd, i*2, i*2+2)
		}
		val, ok := w.Value.(map[string]any)
		if !ok {
			t.Fatalf("window %d value is %T, want map", i, w.Value)
		}
		buckets, ok := val["buckets"].([]int64)
		if !ok || len(buckets) != 16 {
			t.Fatalf("window %d buckets = %v", i, val["buckets"])
		}
		var total int64
		for _, n := range buckets {
			total += n
		}
		// Two 2048-element steps per window; the ±4σ default range can drop
		// a handful of tail values.
		if total < 4000 || total > 4096 {
			t.Errorf("window %d histogram counted %d elements, want ~4096", i, total)
		}
	}

	res, ok := j.View().Result.(map[string]any)
	if !ok {
		t.Fatalf("result is %T, want map", j.View().Result)
	}
	if res["kind"] != KindStanding || res["windows"].(int64) != 4 || res["steps"].(int64) != 8 {
		t.Errorf("standing summary %v", res)
	}
}

// TestStandingDrainResume: a drain checkpoints the standing query's pipeline
// snapshot plus resume sidecar; a fresh server restores it and the resumed
// query fires exactly the windows the first run did not — counted across
// both runs, every window appears once.
func TestStandingDrainResume(t *testing.T) {
	ckdir := t.TempDir()
	s := NewServer(Config{Workers: 1, CheckpointDir: ckdir, Registry: obs.NewRegistry()})
	const steps, winSize = 5000, 64
	spec := JobSpec{
		App: "histogram", Kind: KindStanding, Steps: steps, Elems: 4096, Seed: 7,
		Params: Params{WindowSize: winSize, Buckets: 8},
	}
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs1 := collectRecords(j1)

	// Wait until the query is demonstrably mid-stream, then drain.
	waitStatus(t, j1, StatusRunning, 5*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for j1.prog.stepsDone() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Drain(0)
	if got := j1.View().Status; got != StatusCheckpointed {
		t.Fatalf("status after drain = %q (error %q), want %q", got, j1.View().Error, StatusCheckpointed)
	}
	ckPath := j1.View().Checkpoint
	buf, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	var ck standingCheckpoint
	if err := json.Unmarshal(buf, &ck); err != nil || ck.Snapshot == nil {
		t.Fatalf("checkpoint is not a pipeline snapshot: %v (%s)", err, buf)
	}
	var sc resumeSidecar
	scBuf, err := os.ReadFile(sidecarPath(ckPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(scBuf, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.StepsDone == 0 || sc.StepsDone >= steps {
		t.Fatalf("sidecar steps_done = %d, want mid-stream", sc.StepsDone)
	}
	if sc.Spec.Kind != KindStanding {
		t.Fatalf("sidecar kind %q", sc.Spec.Kind)
	}

	firstStarts := map[int64]bool{}
	for _, rec := range recs1() {
		if rec.Type == "window" && rec.Final {
			if firstStarts[rec.WinStart] {
				t.Fatalf("window %d fired twice in the first run", rec.WinStart)
			}
			firstStarts[rec.WinStart] = true
		}
	}

	s2 := NewServer(Config{Workers: 1, CheckpointDir: ckdir, Registry: obs.NewRegistry()})
	t.Cleanup(func() { s2.Drain(0) })
	ids, err := s2.RestoreCheckpoints()
	if err != nil || len(ids) != 1 {
		t.Fatalf("restored %v (err %v), want one job", ids, err)
	}
	j2, err := s2.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j2, StatusDone, 60*time.Second)
	res := j2.View().Result.(map[string]any)
	if res["steps"].(int64) != steps {
		t.Errorf("resumed run covered %v steps, want %d", res["steps"], steps)
	}
	wantWindows := int64((steps + winSize - 1) / winSize)
	gotTotal := int64(len(firstStarts)) + res["windows"].(int64)
	if gotTotal != wantWindows {
		t.Errorf("windows across drain: first run %d + resumed %d = %d, want %d — duplicated or lost windows",
			len(firstStarts), res["windows"], gotTotal, wantWindows)
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Errorf("checkpoint %s not garbage-collected after completion", ckPath)
	}
}

// TestStandingCancelMidRun: a hard client cancel terminates the query as
// cancelled, with no checkpoint artifacts.
func TestStandingCancelMidRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(JobSpec{
		App: "moments", Kind: KindStanding, Steps: 1 << 20, Elems: 4096,
		Params: Params{WindowSize: 16, GridSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusRunning, 5*time.Second)
	if err := s.Cancel(j.ID(), nil); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusCancelled, 10*time.Second)
	if ck := j.View().Checkpoint; ck != "" {
		t.Errorf("cancelled standing query left checkpoint %s", ck)
	}
}

type nopExecutor struct{}

func (nopExecutor) Execute(ctx context.Context, job RemoteJob) (any, error) { return nil, nil }

// TestStandingRejectedInClusterMode: standing queries are pinned to the
// serving node; cluster-mode servers refuse them at submission.
func TestStandingRejectedInClusterMode(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Executor: nopExecutor{}})
	_, err := s.Submit(JobSpec{App: "histogram", Kind: KindStanding, Steps: 4})
	if err == nil || !strings.Contains(err.Error(), "cluster") {
		t.Fatalf("cluster-mode standing submit: err = %v, want cluster rejection", err)
	}
}

// TestStandingBadSpecs: malformed standing specs fail at submission with
// builder errors, never run-time failures. The accept rows share the batch
// bounds and run to done; a window wider than a step only has to fit the
// fired query window.
func TestStandingBadSpecs(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for name, c := range map[string]struct {
		spec JobSpec
		ok   bool
	}{
		"unknown kind":      {JobSpec{App: "histogram", Kind: "perpetual"}, false},
		"unsupported app":   {JobSpec{App: "kmeans", Kind: KindStanding, Params: Params{K: 2, Dims: 2}}, false},
		"bad window kind":   {JobSpec{App: "histogram", Kind: KindStanding, Params: Params{WindowKind: "hopping"}}, false},
		"bad slide":         {JobSpec{App: "histogram", Kind: KindStanding, Params: Params{WindowKind: "sliding", WindowSize: 4, WindowSlide: 8}}, false},
		"bad late":          {JobSpec{App: "histogram", Kind: KindStanding, Params: Params{Late: "buffer"}}, false},
		"negative late":     {JobSpec{App: "histogram", Kind: KindStanding, Params: Params{AllowedLateness: -1}}, false},
		"too many buckets":  {JobSpec{App: "histogram", Kind: KindStanding, Params: Params{Buckets: maxElems + 1}}, false},
		"even window":       {JobSpec{App: "movingavg", Kind: KindStanding, Params: Params{Window: 24}}, false},
		"buckets > elems":   {JobSpec{App: "histogram", Kind: KindStanding, Steps: 2, Elems: 64, Params: Params{Buckets: 100}}, true},
		"buckets > 65536":   {JobSpec{App: "histogram", Kind: KindStanding, Steps: 2, Elems: 64, Params: Params{Buckets: 65537}}, true},
		"grid_size > elems": {JobSpec{App: "gridagg", Kind: KindStanding, Steps: 2, Elems: 64, Params: Params{GridSize: 1000}}, true},
		"window > step":     {JobSpec{App: "movingavg", Kind: KindStanding, Steps: 2, Elems: 64, Params: Params{WindowSize: 2, Window: 101}}, true},
	} {
		j, err := s.Submit(c.spec)
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: submit failed: %v", name, err)
		case !c.ok && err == nil:
			t.Errorf("%s: submit succeeded", name)
		case c.ok:
			waitStatus(t, j, StatusDone, 10*time.Second)
		}
	}
}

// TestStandingSlidingLateSideOutput: sliding windows over an in-order step
// stream fire in end order with the configured overlap; the side-output
// policy is accepted (the deterministic source produces nothing late).
func TestStandingSlidingLateSideOutput(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(JobSpec{
		App: "gridagg", Kind: KindStanding, Steps: 12, Elems: 1024, Seed: 3,
		Params: Params{WindowKind: "sliding", WindowSize: 4, WindowSlide: 2, GridSize: 256, Late: "side_output"},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(j)
	waitStatus(t, j, StatusDone, 30*time.Second)
	var ends []int64
	late := 0
	for _, rec := range recs() {
		switch rec.Type {
		case "window":
			ends = append(ends, rec.WinEnd)
		case "late":
			late++
		}
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] < ends[i-1] {
			t.Fatalf("windows fired out of order: %v", ends)
		}
	}
	// Sliding(4,2) over steps 0..11: starts -2,0,2,...,10.
	if len(ends) != 7 {
		t.Errorf("fired %d sliding windows, want 7: %v", len(ends), ends)
	}
	if late != 0 {
		t.Errorf("%d late records from an in-order stream", late)
	}
}
