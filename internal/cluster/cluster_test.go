package cluster

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/serve"
)

// testCluster is an in-process rank world: rank 0 runs the dispatcher (and
// the serve front door), the other ranks run worker loops on goroutines.
// The transport is real TCP loopback, so killing a rank by closing its comm
// exercises the same death detection a crashed process would.
type testCluster struct {
	comms  []*mpi.Comm
	regs   []*obs.Registry
	disp   *Dispatcher
	server *serve.Server
}

func startCluster(t *testing.T, size int, scfg serve.Config) *testCluster {
	t.Helper()
	comms, err := mpi.NewTCPWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{comms: comms, regs: make([]*obs.Registry, size)}
	for i := range tc.regs {
		tc.regs[i] = obs.NewRegistry()
	}
	if scfg.CheckpointDir == "" {
		scfg.CheckpointDir = t.TempDir()
	}
	// A generous staleness timeout: these tests kill ranks by closing their
	// endpoints, which the receivers detect instantly; the heartbeat monitor
	// only needs to not false-positive while busy schedulers starve the
	// beat goroutines of CPU.
	tc.disp, err = NewDispatcher(comms[0], Config{
		Registry:         tc.regs[0],
		CheckpointDir:    scfg.CheckpointDir,
		Heartbeat:        20 * time.Millisecond,
		HeartbeatTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < size; r++ {
		r := r
		go Worker(comms[r], WorkerConfig{Registry: tc.regs[r], Heartbeat: 20 * time.Millisecond, WorkDir: t.TempDir()})
	}
	scfg.Executor = tc.disp
	scfg.Registry = tc.regs[0]
	if scfg.Workers == 0 {
		scfg.Workers = 4
	}
	tc.server = serve.NewServer(scfg)
	t.Cleanup(func() {
		tc.server.Drain(100 * time.Millisecond)
		tc.disp.Shutdown()
		for _, c := range comms {
			c.Close()
		}
	})
	return tc
}

func waitTerminal(t *testing.T, j *serve.Job, timeout time.Duration) serve.JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s not terminal within %v (status %q)", j.ID(), timeout, j.View().Status)
	}
	return j.View()
}

// TestClusterExecutesJobsAndGathersMetrics covers the happy path: jobs
// submitted at the coordinator execute on worker ranks, results come back
// through the normal job views, the smart_cluster_* metrics export through
// the Prometheus endpoint, and the drain-time obs.Gather merges them across
// ranks.
func TestClusterExecutesJobsAndGathersMetrics(t *testing.T) {
	tc := startCluster(t, 3, serve.Config{Queue: 16})

	specs := []serve.JobSpec{
		{App: "histogram", Elems: 4096, Tenant: "alpha"},
		{App: "kmeans", Elems: 4096, Params: serve.Params{K: 4, Dims: 4, Iters: 3}, Tenant: "beta"},
	}
	for _, spec := range specs {
		j, err := tc.server.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if v := waitTerminal(t, j, 30*time.Second); v.Status != serve.StatusDone || v.Result == nil {
			t.Fatalf("job %s: status %q (err %q), result %v", v.ID, v.Status, v.Error, v.Result)
		}
	}
	if got := tc.regs[0].Counter("smart_cluster_jobs_dispatched_total").Value(); got < 2 {
		t.Errorf("dispatched = %d, want >= 2", got)
	}
	executed := int64(0)
	for _, reg := range tc.regs[1:] {
		executed += reg.Counter("smart_cluster_jobs_executed_total").Value()
	}
	if executed < 2 {
		t.Errorf("worker executions = %d, want >= 2", executed)
	}

	// The coordinator's Prometheus endpoint carries the cluster family,
	// per-tenant queue wait included.
	ts := httptest.NewServer(tc.server.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"smart_cluster_jobs_dispatched_total",
		"smart_cluster_workers",
		`smart_cluster_queue_wait_seconds_count{tenant="alpha"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// Drain, then gather: the cluster merge must contain coordinator and
	// worker counters side by side. Wait for at least one beat so the
	// heartbeat counter is visibly non-zero in the merge.
	beats := tc.regs[1].Counter("smart_cluster_heartbeats_total")
	for deadline := time.Now().Add(5 * time.Second); beats.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	tc.server.Drain(time.Second)
	cs, err := tc.disp.Shutdown()
	if err != nil {
		t.Fatalf("shutdown gather: %v", err)
	}
	if cs == nil {
		t.Fatal("shutdown returned no cluster snapshot with all workers alive")
	}
	if got := cs.Merged.Counters["smart_cluster_jobs_dispatched_total"]; got < 2 {
		t.Errorf("merged dispatched = %d, want >= 2", got)
	}
	if got := cs.Merged.Counters["smart_cluster_jobs_executed_total"]; got < 2 {
		t.Errorf("merged executed = %d, want >= 2", got)
	}
	if got := cs.Merged.Counters["smart_cluster_heartbeats_total"]; got == 0 {
		t.Error("merged heartbeats = 0, want > 0")
	}
}

// analyticsPayload strips the run-dependent "stats" diagnostics from a job
// result, leaving only the analytics output for byte comparison.
func analyticsPayload(t *testing.T, v any) []byte {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("result is %T, want map", v)
	}
	clean := make(map[string]any, len(m))
	for k, val := range m {
		if k != "stats" {
			clean[k] = val
		}
	}
	buf, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// deathSpec is a deterministic, checkpointable, many-step job: long enough
// to kill a worker mid-run, seeded so two runs produce identical output.
var deathSpec = serve.JobSpec{
	App: "kmeans", Steps: 200, Elems: 16384, Seed: 42,
	Params: serve.Params{K: 4, Dims: 4, Iters: 4},
}

// TestRankDeathRetriesFromCheckpointByteIdentical is the headline
// robustness test: a worker rank is killed mid-job (its TCP endpoint torn
// down, exactly what a crashed process looks like to the coordinator), and
// the job must still complete — retried on the surviving rank from the last
// uploaded checkpoint — with output bytes identical to an undisturbed run.
func TestRankDeathRetriesFromCheckpointByteIdentical(t *testing.T) {
	// Reference run: same spec, nobody dies.
	ref := startCluster(t, 3, serve.Config{Queue: 16})
	j, err := ref.server.Submit(deathSpec)
	if err != nil {
		t.Fatal(err)
	}
	refView := waitTerminal(t, j, 60*time.Second)
	if refView.Status != serve.StatusDone {
		t.Fatalf("reference run: status %q (%s)", refView.Status, refView.Error)
	}
	want := analyticsPayload(t, refView.Result)

	// Victim run: wait for at least two per-step checkpoint uploads from
	// rank 1 (the least-loaded tiebreak sends the first job there), then
	// kill it.
	tc := startCluster(t, 3, serve.Config{Queue: 16})
	j, err = tc.server.Submit(deathSpec)
	if err != nil {
		t.Fatal(err)
	}
	uploads := tc.regs[1].Counter("smart_cluster_checkpoint_uploads_total")
	deadline := time.Now().Add(30 * time.Second)
	for uploads.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("rank 1 uploaded %d checkpoints, want >= 2 (job status %q)", uploads.Value(), j.View().Status)
		}
		time.Sleep(time.Millisecond)
	}
	tc.comms[1].Close()

	view := waitTerminal(t, j, 60*time.Second)
	if view.Status != serve.StatusDone {
		t.Fatalf("after rank death: status %q (%s)", view.Status, view.Error)
	}
	if got := analyticsPayload(t, view.Result); string(got) != string(want) {
		t.Errorf("retried result differs from reference:\n got %s\nwant %s", got, want)
	}
	if got := tc.regs[0].Counter("smart_cluster_rank_deaths_total").Value(); got != 1 {
		t.Errorf("rank deaths = %d, want 1", got)
	}
	if got := tc.regs[0].Counter("smart_cluster_jobs_retried_total").Value(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}

// TestMultiRankJobSpansSubCommunicator runs one job across both worker
// ranks: the spec's element stream is partitioned and the global combination
// runs over the per-job sub-communicator, with the lead rank reporting one
// merged result.
func TestMultiRankJobSpansSubCommunicator(t *testing.T) {
	tc := startCluster(t, 3, serve.Config{Queue: 16})
	j, err := tc.server.Submit(serve.JobSpec{
		App: "histogram", Elems: 8192, Steps: 2, Ranks: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j, 30*time.Second)
	if v.Status != serve.StatusDone {
		t.Fatalf("multi-rank job: status %q (%s)", v.Status, v.Error)
	}
	res, ok := v.Result.(map[string]any)
	if !ok || res["buckets"] == nil {
		t.Fatalf("multi-rank result missing buckets: %v", v.Result)
	}
	// Both steps of both ranks' shares, each element counted once.
	var total float64
	for _, n := range res["buckets"].([]any) {
		total += n.(float64)
	}
	if total != 8192*2 {
		t.Errorf("multi-rank buckets total %v, want %d", total, 8192*2)
	}
	for r := 1; r <= 2; r++ {
		if got := tc.regs[r].Counter("smart_cluster_jobs_executed_total").Value(); got != 1 {
			t.Errorf("rank %d executed %d jobs, want 1", r, got)
		}
	}
}

// TestMultiRankJobFailsTerminallyOnMemberDeath pins the documented policy:
// a job spanning ranks is not retried when a member dies — its combination
// state is spread across the members — and fails through the normal stream.
func TestMultiRankJobFailsTerminallyOnMemberDeath(t *testing.T) {
	tc := startCluster(t, 3, serve.Config{Queue: 16})
	j, err := tc.server.Submit(serve.JobSpec{
		App: "kmeans", Elems: 16384, Steps: 500, Ranks: 2, Seed: 3,
		Params: serve.Params{K: 4, Dims: 4, Iters: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let it start executing, then kill a member.
	deadline := time.Now().Add(30 * time.Second)
	for j.View().Status != serve.StatusRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %q", j.View().Status)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	tc.comms[2].Close()

	v := waitTerminal(t, j, 60*time.Second)
	if v.Status != serve.StatusFailed {
		t.Fatalf("multi-rank death: status %q, want failed (%s)", v.Status, v.Error)
	}
	if !strings.Contains(v.Error, "multi-rank") {
		t.Errorf("failure message %q does not name the multi-rank policy", v.Error)
	}
	if got := tc.regs[0].Counter("smart_cluster_jobs_failed_terminal_total").Value(); got != 1 {
		t.Errorf("terminal failures = %d, want 1", got)
	}
}

// TestClusterDrainCheckpointsRemoteJob: a drain that interrupts a remote
// job pulls its final checkpoint bytes back to the coordinator, which
// persists them (plus the resume sidecar) exactly like a local drain.
func TestClusterDrainCheckpointsRemoteJob(t *testing.T) {
	ckdir := t.TempDir()
	tc := startCluster(t, 3, serve.Config{Queue: 16, CheckpointDir: ckdir})

	j, err := tc.server.Submit(deathSpec)
	if err != nil {
		t.Fatal(err)
	}
	uploads := tc.regs[1].Counter("smart_cluster_checkpoint_uploads_total")
	deadline := time.Now().Add(30 * time.Second)
	for uploads.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint upload before drain")
		}
		time.Sleep(time.Millisecond)
	}
	tc.server.Drain(10 * time.Millisecond)
	v := j.View()
	if v.Status != serve.StatusCheckpointed {
		t.Fatalf("drained remote job: status %q (%s)", v.Status, v.Error)
	}
	if v.Checkpoint == "" || !strings.HasPrefix(v.Checkpoint, ckdir) {
		t.Fatalf("checkpoint path %q not under %q", v.Checkpoint, ckdir)
	}

	// A fresh cluster (the restarted daemon) restores the job from the
	// coordinator-side artifacts and runs it to completion on a worker.
	tc2 := startCluster(t, 3, serve.Config{Queue: 16, CheckpointDir: ckdir})
	ids, err := tc2.server.RestoreCheckpoints()
	if err != nil || len(ids) != 1 {
		t.Fatalf("RestoreCheckpoints = %v, %v; want one job", ids, err)
	}
	restored, err := tc2.server.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	rv := waitTerminal(t, restored, 60*time.Second)
	if rv.Status != serve.StatusDone {
		t.Fatalf("restored job: status %q (%s)", rv.Status, rv.Error)
	}
}
