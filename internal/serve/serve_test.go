package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/obs"
)

// registerBlockingApp installs a throwaway "test-block" application whose
// jobs park until the returned channel is closed (or their context ends),
// giving admission tests a job that occupies a worker deterministically.
func registerBlockingApp(t *testing.T) chan struct{} {
	t.Helper()
	release := make(chan struct{})
	builders["test-block"] = func(JobSpec, *memmodel.Node, *mpi.Comm) (*jobProgram, error) {
		return &jobProgram{run: func(ctx context.Context, emit func(StreamRecord)) (any, error) {
			select {
			case <-release:
				return "released", nil
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
		}}, nil
	}
	t.Cleanup(func() { delete(builders, "test-block") })
	return release
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = t.TempDir()
	}
	s := NewServer(cfg)
	t.Cleanup(func() { s.Drain(0) })
	return s
}

// waitStatus polls until the job reaches status or the deadline passes.
func waitStatus(t *testing.T, j *Job, want Status, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j.View().Status == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s: status = %q, want %q within %v", j.ID(), j.View().Status, want, timeout)
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, spec := range []JobSpec{
		{},
		{App: "no-such-app"},
		{App: "histogram", Elems: -1},
		{App: "histogram", Params: Params{Buckets: -5}},
		{App: "kmeans", Params: Params{K: -1}},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted a bad spec", spec)
		}
	}
}

func TestQueueBoundsAdmission(t *testing.T) {
	release := registerBlockingApp(t)
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, Queue: 2, Registry: reg})

	// One job occupies the single worker, two fill the queue; the fourth
	// must bounce off the bound.
	first, err := s.Submit(JobSpec{App: "test-block"})
	if err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	waitStatus(t, first, StatusRunning, 2*time.Second)
	jobs := []*Job{first}
	for i := 1; i < 3; i++ {
		j, err := s.Submit(JobSpec{App: "test-block"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if _, err := s.Submit(JobSpec{App: "test-block"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over capacity: err = %v, want ErrQueueFull", err)
	}
	if got := reg.Counter(`smart_serve_admission_rejects_total{cause="queue_full"}`).Value(); got != 1 {
		t.Errorf("queue_full rejects = %d, want 1", got)
	}
	if depth := reg.Gauge("smart_serve_queue_depth").Value(); depth != 2 {
		t.Errorf("queue depth = %d, want 2", depth)
	}

	close(release)
	for _, j := range jobs {
		waitStatus(t, j, StatusDone, 5*time.Second)
	}
	if depth := reg.Gauge("smart_serve_queue_depth").Value(); depth != 0 {
		t.Errorf("queue depth after drain-down = %d, want 0", depth)
	}
	if got := reg.Counter(`smart_serve_jobs_total{status="done"}`).Value(); got != 3 {
		t.Errorf("done jobs = %d, want 3", got)
	}
}

func TestMemPressureRejectsSubmission(t *testing.T) {
	node := memmodel.NewNode(1 << 20)
	alloc, err := node.Alloc("resident", 950<<10) // ~91% > default 85% high water
	if err != nil {
		t.Fatal(err)
	}
	defer alloc.Free()
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Mem: node, Registry: reg})

	if _, err := s.Submit(JobSpec{App: "histogram", Elems: 1024}); !errors.Is(err, ErrMemPressure) {
		t.Fatalf("submit under pressure: err = %v, want ErrMemPressure", err)
	}
	if got := reg.Counter(`smart_serve_admission_rejects_total{cause="mem_pressure"}`).Value(); got != 1 {
		t.Errorf("mem_pressure rejects = %d, want 1", got)
	}

	// Pressure released: the same spec is admitted.
	alloc.Free()
	j, err := s.Submit(JobSpec{App: "histogram", Elems: 1024})
	if err != nil {
		t.Fatalf("submit after release: %v", err)
	}
	waitStatus(t, j, StatusDone, 5*time.Second)
}

func TestCancelStopsRunningJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// A deliberately long job: many steps of iterative k-means.
	j, err := s.Submit(JobSpec{
		App: "kmeans", Steps: 10_000, Elems: 65536,
		Params: Params{K: 8, Dims: 4, Iters: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusRunning, 5*time.Second)
	start := time.Now()
	if err := s.Cancel(j.ID(), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job did not stop")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancel took %v; chunk-granularity cancellation should be far faster", d)
	}
	if got := j.View().Status; got != StatusCancelled {
		t.Fatalf("status = %q, want %q", got, StatusCancelled)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := registerBlockingApp(t)
	s := newTestServer(t, Config{Workers: 1, Queue: 2})
	blocker, err := s.Submit(JobSpec{App: "test-block"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocker, StatusRunning, 2*time.Second)
	queued, err := s.Submit(JobSpec{App: "test-block"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID(), nil); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, queued, StatusCancelled, 2*time.Second)
	close(release)
	waitStatus(t, blocker, StatusDone, 5*time.Second)
}

func TestDeadlineCancelsJob(t *testing.T) {
	registerBlockingApp(t)
	s := newTestServer(t, Config{})
	j, err := s.Submit(JobSpec{App: "test-block", DeadlineMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusCancelled, 5*time.Second)
	if msg := j.View().Error; !strings.Contains(msg, "deadline") {
		t.Errorf("error = %q, want a deadline message", msg)
	}
}

func TestDrainCheckpointsInflightAndRejectsQueued(t *testing.T) {
	ckdir := t.TempDir()
	reg := obs.NewRegistry()
	s := NewServer(Config{Workers: 1, Queue: 2, CheckpointDir: ckdir, Registry: reg})

	inflight, err := s.Submit(JobSpec{
		App: "kmeans", Steps: 10_000, Elems: 65536,
		Params: Params{K: 8, Dims: 4, Iters: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, inflight, StatusRunning, 5*time.Second)
	queued, err := s.Submit(JobSpec{App: "histogram", Elems: 1024})
	if err != nil {
		t.Fatal(err)
	}

	s.Drain(10 * time.Millisecond)

	if got := inflight.View().Status; got != StatusCheckpointed {
		t.Fatalf("inflight status = %q, want %q (error: %s)", got, StatusCheckpointed, inflight.View().Error)
	}
	ck := inflight.View().Checkpoint
	if ck == "" {
		t.Fatal("checkpointed job has no checkpoint path")
	}
	buf, err := os.ReadFile(ck)
	if err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	if !bytes.HasPrefix(buf, []byte("SMARTCK1")) {
		t.Errorf("checkpoint %s does not start with the Smart magic", ck)
	}
	if got := queued.View().Status; got != StatusRejected {
		t.Errorf("queued status = %q, want %q", got, StatusRejected)
	}
	if _, err := s.Submit(JobSpec{App: "histogram"}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
	if got := reg.Counter(`smart_serve_jobs_total{status="checkpointed"}`).Value(); got != 1 {
		t.Errorf("checkpointed jobs = %d, want 1", got)
	}
	if got := reg.Counter(`smart_serve_admission_rejects_total{cause="draining"}`).Value(); got < 2 {
		t.Errorf("draining rejects = %d, want >= 2 (queue flush + post-drain submit)", got)
	}
}

func TestDrainLetsShortJobsFinish(t *testing.T) {
	release := registerBlockingApp(t)
	s := NewServer(Config{Workers: 1, Registry: obs.NewRegistry(), CheckpointDir: t.TempDir()})
	j, err := s.Submit(JobSpec{App: "test-block"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusRunning, 2*time.Second)
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	s.Drain(5 * time.Second)
	if got := j.View().Status; got != StatusDone {
		t.Errorf("status after graceful drain = %q, want %q", got, StatusDone)
	}
}

// decodeStream parses an NDJSON body into records.
func decodeStream(t *testing.T, body io.Reader) []StreamRecord {
	t.Helper()
	var recs []StreamRecord
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestStreamDeliversEarlyEmissionsBeforeResult(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The moving average runs with early emission on: window positions
	// finalize and stream as soon as their expected contributions arrive,
	// long before the run converges.
	spec, _ := json.Marshal(JobSpec{App: "movingavg", Elems: 2048, Params: Params{Window: 25}})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.Status != StatusDone {
		t.Fatalf("job status = %q, want done (error: %s)", view.Status, view.Error)
	}

	sr, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	if ct := sr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	recs := decodeStream(t, sr.Body)
	firstEmit, resultAt := -1, -1
	for i, rec := range recs {
		if rec.Type == "emit" && firstEmit < 0 {
			firstEmit = i
		}
		if rec.Type == "result" {
			resultAt = i
		}
	}
	if firstEmit < 0 {
		t.Fatal("stream contains no early-emission records")
	}
	if resultAt < 0 {
		t.Fatal("stream contains no terminal result record")
	}
	if firstEmit >= resultAt {
		t.Errorf("first emit at %d, result at %d: emissions must precede the result", firstEmit, resultAt)
	}
	if last := recs[len(recs)-1]; last.Type != "result" {
		t.Errorf("last stream record = %q, want result", last.Type)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	release := registerBlockingApp(t)
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, Queue: 2, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(spec JobSpec) *http.Response {
		t.Helper()
		buf, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Above the admission limit (1 worker + 2 queue slots), later
	// submissions must see 429 with a retry hint.
	var accepted []string
	var rejected int
	for i := 0; i < 5; i++ {
		resp := post(JobSpec{App: "test-block"})
		switch resp.StatusCode {
		case http.StatusAccepted:
			var view JobView
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, view.ID)
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// The first job may or may not have been picked up by the worker yet,
	// so either 3 or 4 submissions fit (queue + worker slot).
	if len(accepted) < 3 || rejected == 0 || len(accepted)+rejected != 5 {
		t.Fatalf("accepted %d, rejected %d; want >=3 accepted and >=1 rejected of 5", len(accepted), rejected)
	}

	// Bad specs are 400, unknown jobs 404.
	if resp := post(JobSpec{App: "no-such-app"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown app: status %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %v status %d, want 404", err, resp.StatusCode)
	}

	// DELETE cancels a queued job.
	cancelID := accepted[len(accepted)-1]
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+cancelID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var listing struct {
			Jobs []JobView `json:"jobs"`
		}
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(listing.Jobs) != len(accepted) {
			t.Fatalf("listed %d jobs, want %d", len(listing.Jobs), len(accepted))
		}
		terminal := 0
		for _, v := range listing.Jobs {
			if v.Status.terminal() {
				terminal++
			}
		}
		if terminal == len(accepted) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs not terminal: %+v", listing.Jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The service metrics ride the same endpoint as the runtime's.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"smart_serve_queue_depth", "smart_serve_inflight_jobs",
		"smart_serve_admission_rejects_total", "smart_serve_job_seconds",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// Apps listing covers the registry.
	aresp, err := http.Get(ts.URL + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	abody, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	for _, want := range []string{"histogram", "kmeans", "movingavg", "pipeline-grid"} {
		if !strings.Contains(string(abody), fmt.Sprintf("%q", want)) {
			t.Errorf("/v1/apps missing %s: %s", want, abody)
		}
	}
}

func TestEveryRegisteredAppRuns(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	specs := map[string]JobSpec{
		"histogram":     {App: "histogram", Elems: 4096},
		"gridagg":       {App: "gridagg", Elems: 4096, Params: Params{GridSize: 256}},
		"moments":       {App: "moments", Elems: 4096, Params: Params{GridSize: 256}},
		"mutualinfo":    {App: "mutualinfo", Elems: 4096, Params: Params{Buckets: 16}},
		"logreg":        {App: "logreg", Elems: 4096, Params: Params{Dims: 8, Iters: 2}},
		"kmeans":        {App: "kmeans", Elems: 4096, Params: Params{K: 4, Dims: 4, Iters: 3}},
		"movingavg":     {App: "movingavg", Elems: 2048},
		"movingmedian":  {App: "movingmedian", Elems: 2048},
		"kde":           {App: "kde", Elems: 2048},
		"savgol":        {App: "savgol", Elems: 2048},
		"pipeline-grid": {App: "pipeline-grid", Elems: 4096},
	}
	for _, name := range Apps() {
		spec, ok := specs[name]
		if !ok {
			t.Fatalf("no test spec for registered app %q", name)
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		waitStatus(t, j, StatusDone, 30*time.Second)
		if j.View().Result == nil {
			t.Errorf("%s: done with nil result", name)
		}
	}
}

// TestHistogramJobCountsEveryStepOnce: a multi-step histogram job
// accumulates every time-step into one map, so its buckets total
// steps × elems at any thread count.
func TestHistogramJobCountsEveryStepOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		_, prog, err := Compile(JobSpec{App: "histogram", Steps: 3, Elems: 1000, Threads: threads}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prog.Run(context.Background(), func(StreamRecord) {})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, n := range res.(map[string]any)["buckets"].([]int64) {
			total += n
		}
		if total != 3000 {
			t.Errorf("threads=%d: buckets total %d, want 3000", threads, total)
		}
	}
}

func TestJobsChargeSharedMemNode(t *testing.T) {
	node := memmodel.NewNode(256 << 20)
	s := newTestServer(t, Config{Mem: node, Workers: 2})
	j, err := s.Submit(JobSpec{App: "histogram", Elems: 65536})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j, StatusDone, 10*time.Second)
	if node.Peak() == 0 {
		t.Error("job ran without charging the memory node")
	}
	if node.Used() != 0 {
		t.Errorf("node used = %d after job completion, want 0", node.Used())
	}
}

// TestSpecIgnoresRetiredFields: "map_impl" and "engine" are no longer job
// fields. Specs written for servers that still had them — from old clients
// or in old .resume.json sidecars — are accepted and run whatever value they
// carry: the spec decoder ignores unknown fields.
func TestSpecIgnoresRetiredFields(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, f := range []struct{ field, value string }{
		{"map_impl", "gomap"}, {"map_impl", "arena"}, {"map_impl", "no-such-store"},
		{"engine", "stealing"}, {"engine", "static"}, {"engine", "fifo"},
	} {
		body := fmt.Sprintf(`{"app":"histogram","elems":4096,%q:%q}`, f.field, f.value)
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || view.Status != StatusDone {
			t.Errorf("%s %q: status %d, job %q (%s), want 200 and done",
				f.field, f.value, resp.StatusCode, view.Status, view.Error)
		}
	}
}

// strippedResult marshals a terminal job's result with the non-deterministic
// "stats" block (timings) removed, for byte-level comparison across runs.
func strippedResult(t *testing.T, j *Job) []byte {
	t.Helper()
	buf, err := json.Marshal(j.View().Result)
	if err != nil {
		t.Fatalf("marshal result of %s: %v", j.ID(), err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("result of %s is not an object: %v", j.ID(), err)
	}
	delete(m, "stats")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestartRestoresDrainedJobsFirstByteIdentical is the drain-then-restart
// regression: a server drained mid-job leaves a checkpoint + resume sidecar;
// a new server over the same directory must re-admit that job ahead of
// anything submitted after the restart, resume it from the checkpoint
// (skipping the analyzed steps, not re-reducing them), produce a result
// byte-identical to an uninterrupted run, and GC the checkpoint files once
// the job completes.
func TestRestartRestoresDrainedJobsFirstByteIdentical(t *testing.T) {
	spec := JobSpec{
		App: "kmeans", Steps: 400, Elems: 32768, Seed: 7,
		Params: Params{K: 4, Dims: 4, Iters: 6},
	}

	// Reference: the same job, uninterrupted.
	ref := newTestServer(t, Config{Workers: 1})
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, rj, StatusDone, 60*time.Second)
	want := strippedResult(t, rj)

	// Drain a server once the job has analyzed a few steps, so the restore
	// below actually has work to skip.
	ckdir := t.TempDir()
	s1 := NewServer(Config{Workers: 1, CheckpointDir: ckdir, Registry: obs.NewRegistry()})
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j1.prog.stepsDone() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := j1.prog.stepsDone(); n < 5 {
		t.Fatalf("job analyzed %d steps within the deadline, want >= 5", n)
	}
	s1.Drain(time.Millisecond)
	if got := j1.View().Status; got != StatusCheckpointed {
		t.Fatalf("drained job status = %q, want %q", got, StatusCheckpointed)
	}

	// Restart over the same checkpoint dir. A blocker pins the single worker
	// so queue order is observable: the restored job must carry an earlier
	// virtual-finish tag than a job submitted after the restore.
	release := registerBlockingApp(t)
	reg2 := obs.NewRegistry()
	s2 := newTestServer(t, Config{Workers: 1, CheckpointDir: ckdir, Registry: reg2})
	blocker, err := s2.Submit(JobSpec{App: "test-block"})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, blocker, StatusRunning, 5*time.Second)

	ids, err := s2.RestoreCheckpoints()
	if err != nil {
		t.Fatalf("RestoreCheckpoints: %v", err)
	}
	if len(ids) != 1 {
		t.Fatalf("restored %d jobs (%v), want 1", len(ids), ids)
	}
	restored, err := s2.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	late, err := s2.Submit(JobSpec{App: "histogram", Elems: 512})
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	select {
	case <-restored.Done():
	case <-late.Done():
		t.Fatal("job submitted after restart finished before the restored job")
	case <-time.After(60 * time.Second):
		t.Fatal("restored job did not finish")
	}
	waitStatus(t, late, StatusDone, 10*time.Second)
	if got := restored.View().Status; got != StatusDone {
		t.Fatalf("restored job status = %q (error: %s), want %q", got, restored.View().Error, StatusDone)
	}

	got := strippedResult(t, restored)
	if !bytes.Equal(want, got) {
		t.Errorf("restored result differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	if n := reg2.Counter("smart_serve_jobs_restored_total").Value(); n != 1 {
		t.Errorf("restored counter = %d, want 1", n)
	}

	// The checkpoint and its sidecar must be gone now that the job is done.
	entries, err := os.ReadDir(ckdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("checkpoint dir not GCd after restored job completed: %v", names)
	}
	if n := reg2.Counter("smart_serve_checkpoints_gc_total").Value(); n < 1 {
		t.Errorf("checkpoint GC counter = %d, want >= 1", n)
	}
}
