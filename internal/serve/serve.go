package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/obs"
)

// Admission errors. Submit returns exactly one of these when a well-formed
// job cannot be admitted; any other Submit error means the spec itself is
// invalid (the HTTP layer maps the distinction to 429/503 versus 400).
var (
	// ErrQueueFull reports that the bounded job queue is at capacity.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrMemPressure reports that the memory node is above its high-water
	// mark — the server refuses work rather than push the node into paging.
	ErrMemPressure = errors.New("serve: node under memory pressure")
	// ErrDraining reports that the server is shutting down.
	ErrDraining = errors.New("serve: server draining")
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("serve: no such job")
)

// ErrDrainCheckpoint is the cancellation cause Drain uses when the grace
// period expires: runJob (and a cluster Executor) recognizes it and
// checkpoints the job's state instead of discarding it.
var ErrDrainCheckpoint = errors.New("serve: drain grace expired, checkpointing")

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued Status = "queued"
	// StatusRunning: executing on a worker.
	StatusRunning Status = "running"
	// StatusDone: finished successfully; Result holds the output.
	StatusDone Status = "done"
	// StatusFailed: the application returned an error.
	StatusFailed Status = "failed"
	// StatusCancelled: stopped by client cancel or deadline.
	StatusCancelled Status = "cancelled"
	// StatusCheckpointed: stopped by drain with its state persisted.
	StatusCheckpointed Status = "checkpointed"
	// StatusRejected: flushed from the queue by a drain before running.
	StatusRejected Status = "rejected"
)

// terminal reports whether a status is final.
func (st Status) terminal() bool {
	return st != StatusQueued && st != StatusRunning
}

// RemoteJob is an admitted job handed to a Config.Executor: everything an
// external execution plane (the cluster dispatcher) needs to run it and
// stream its records back.
type RemoteJob struct {
	// ID is the job's service-wide identifier.
	ID string
	// Spec is the normalized job spec.
	Spec JobSpec
	// Trace is the job's root trace context; the executor should thread it
	// through dispatch and execution so the job's spans across ranks stitch
	// into one trace.
	Trace obs.TraceContext
	// Emit forwards a stream record into the job's NDJSON stream. Safe for
	// concurrent use.
	Emit func(StreamRecord)
	// ResumeCheckpoint, when non-empty, is a checkpoint file the job's
	// combination map must be restored from before running, with
	// ResumeSteps already-analyzed time-steps to skip.
	ResumeCheckpoint string
	// ResumeSteps is the number of completed steps the checkpoint covers.
	ResumeSteps int
}

// Executor runs admitted jobs somewhere other than the local worker pool —
// the cluster dispatcher implements it. Execute blocks until the job is
// terminal: a nil error with the result value, a *CheckpointedError when a
// drain-cancelled job was checkpointed, a context error for cancellation,
// any other error for failure.
type Executor interface {
	Execute(ctx context.Context, job RemoteJob) (any, error)
}

// CheckpointedError is returned by an Executor when a drain-cancelled job
// was persisted instead of discarded.
type CheckpointedError struct {
	// Path is the written checkpoint file.
	Path string
	// StepsDone is the number of completed time-steps the checkpoint covers.
	StepsDone int
}

func (e *CheckpointedError) Error() string {
	return fmt.Sprintf("serve: checkpointed after %d steps to %s", e.StepsDone, e.Path)
}

// Config configures a Server.
type Config struct {
	// Queue is the bounded job-queue capacity (default 16). A Submit that
	// finds the queue full fails with ErrQueueFull instead of blocking.
	Queue int
	// Workers is the worker-pool size — how many jobs execute concurrently
	// (default 2). In cluster mode (Executor set) it caps the jobs in
	// flight on the cluster at once.
	Workers int
	// Tenants maps tenant names to their fair-queueing configuration
	// (weight, in-flight quota, priority class). Tenants absent from the
	// map get weight 1, no quota, class "normal".
	Tenants map[string]TenantConfig
	// Executor, when non-nil, replaces local execution: admitted jobs are
	// handed to it (the cluster dispatcher) instead of running on this
	// process's schedulers. Specs are still fully validated at Submit.
	Executor Executor
	// Mem, when non-nil, is the virtual memory node jobs charge their
	// runtime structures against and the admission signal: submissions are
	// rejected while the node is above its high-water mark.
	Mem *memmodel.Node
	// DefaultDeadline caps a job's execution time when its spec does not
	// set one; zero means no default deadline.
	DefaultDeadline time.Duration
	// CheckpointDir receives <job-id>.ck files written when a drain
	// interrupts a checkpointable job (default os.TempDir()).
	CheckpointDir string
	// Registry receives the service metrics (default obs.DefaultRegistry()).
	Registry *obs.Registry
}

// Job is one submitted analytics job. All exported access goes through
// View, Done and the Server methods; fields are guarded by mu.
type Job struct {
	id     string
	spec   JobSpec
	tenant string
	prog   *Program
	ctx    context.Context
	// cancel cancels the job's context with a cause; runJob classifies the
	// terminal status from it.
	cancel context.CancelCauseFunc
	// done closes when the job reaches a terminal status.
	done chan struct{}
	hub  *streamHub

	// vstart and vfinish are the WFQ virtual time tags stamped at admission.
	vstart, vfinish float64
	// resumeCkpt and resumeSteps carry a restored job's checkpoint: the
	// combination map file to load before running and the completed steps
	// it covers. resumeSidecar is the restart metadata file, deleted with
	// the checkpoint when the job finishes for good.
	resumeCkpt    string
	resumeSteps   int
	resumeSidecar string

	mu         sync.Mutex
	status     Status
	result     any
	errMsg     string
	checkpoint string
	submitted  time.Time
	started    time.Time
	finished   time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// JobView is the JSON shape of a job's state.
type JobView struct {
	ID         string  `json:"id"`
	App        string  `json:"app"`
	Status     Status  `json:"status"`
	Spec       JobSpec `json:"spec"`
	Submitted  string  `json:"submitted,omitempty"`
	Started    string  `json:"started,omitempty"`
	Finished   string  `json:"finished,omitempty"`
	Result     any     `json:"result,omitempty"`
	Error      string  `json:"error,omitempty"`
	Checkpoint string  `json:"checkpoint,omitempty"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID:         j.id,
		App:        j.spec.App,
		Status:     j.status,
		Spec:       j.spec,
		Submitted:  rfc3339OrEmpty(j.submitted),
		Started:    rfc3339OrEmpty(j.started),
		Finished:   rfc3339OrEmpty(j.finished),
		Result:     j.result,
		Error:      j.errMsg,
		Checkpoint: j.checkpoint,
	}
}

// Server is the multi-tenant analytics job service: admission control in
// Submit, weighted fair queueing across tenants, a worker pool draining the
// queue (or handing jobs to a cluster Executor), per-job cancellation
// through each job's context, and streaming results through per-job hubs.
type Server struct {
	cfg Config
	met serveMetrics

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	draining bool
	seq      int

	queue *wfq
	wg    sync.WaitGroup
}

// NewServer creates the service and starts its worker pool.
func NewServer(cfg Config) *Server {
	if cfg.Queue <= 0 {
		cfg.Queue = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.DefaultRegistry()
	}
	s := &Server{
		cfg:   cfg,
		met:   newServeMetrics(cfg.Registry),
		jobs:  make(map[string]*Job),
		queue: newWFQ(cfg.Queue, cfg.Tenants),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// tenantOf resolves a spec's tenant name (default "default").
func tenantOf(spec JobSpec) string {
	if spec.Tenant == "" {
		return "default"
	}
	return spec.Tenant
}

// Submit builds the spec's job and admits it to the queue. It never blocks:
// a full queue returns ErrQueueFull, a pressured memory node ErrMemPressure,
// a draining server ErrDraining, and a bad spec the builder's error. On
// success the job is queued (stamped with its tenant's fair-queueing tags)
// and will run when a worker frees up and the tenant is under quota.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	// The spec is compiled even in cluster mode, where the program runs on
	// a worker rank instead: construction is the full validation pass, so a
	// bad spec is a 400 at the front door, not a failure on a remote rank.
	// The validation build charges no memory — the real build happens where
	// the job runs.
	buildMem := s.cfg.Mem
	if s.cfg.Executor != nil {
		buildMem = nil
	}
	norm, prog, err := Compile(spec, buildMem, nil)
	if err != nil {
		return nil, err
	}
	if s.cfg.Executor != nil {
		// Standing queries hold per-window state on the node that feeds
		// them; dispatching one to a remote rank would strand that state.
		if norm.Kind == KindStanding {
			return nil, fmt.Errorf("serve: standing queries run on the serving node only, not in cluster mode")
		}
		prog = nil
	}
	return s.admit(norm, prog, "", 0, "")
}

// admit registers and enqueues a compiled job.
func (s *Server) admit(norm JobSpec, prog *Program, resumeCkpt string, resumeSteps int, sidecar string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.met.rejectsDraining.Inc()
		return nil, ErrDraining
	}
	if s.cfg.Mem != nil && s.cfg.Mem.Pressured() {
		s.met.rejectsPressure.Inc()
		return nil, ErrMemPressure
	}
	s.seq++
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &Job{
		id:            fmt.Sprintf("job-%04d", s.seq),
		spec:          norm,
		tenant:        tenantOf(norm),
		prog:          prog,
		ctx:           ctx,
		cancel:        cancel,
		done:          make(chan struct{}),
		hub:           newStreamHub(),
		status:        StatusQueued,
		submitted:     time.Now(),
		resumeCkpt:    resumeCkpt,
		resumeSteps:   resumeSteps,
		resumeSidecar: sidecar,
	}
	if err := s.queue.push(j, j.tenant); err != nil {
		s.seq--
		cancel(err)
		switch {
		case errors.Is(err, ErrQueueFull):
			s.met.rejectsQueueFull.Inc()
		case errors.Is(err, ErrDraining):
			s.met.rejectsDraining.Inc()
		}
		return nil, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.met.queueDepth.Add(1)
	return j, nil
}

// Get returns a job by id.
func (s *Server) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// List returns every job's view in submission order.
func (s *Server) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].View())
	}
	return out
}

// Cancel stops a job: a queued job is finished immediately (the worker will
// skip it), a running job's context is cancelled and the reduction stops
// within one chunk per thread.
func (s *Server) Cancel(id string, cause error) error {
	j, err := s.Get(id)
	if err != nil {
		return err
	}
	if cause == nil {
		cause = errors.New("serve: cancelled by client")
	}
	j.mu.Lock()
	if j.status.terminal() {
		j.mu.Unlock()
		return nil
	}
	queued := j.status == StatusQueued
	j.mu.Unlock()
	j.cancel(cause)
	if queued {
		s.finish(j, StatusQueued, StatusCancelled, nil, cause.Error(), "")
	}
	return nil
}

// worker drains the queue until Drain closes it. The in-flight quota slot
// charged by pop is released when runJob returns — including the skip path
// for jobs cancelled while queued.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.queue.pop()
		if j == nil {
			return
		}
		s.met.queueDepth.Add(-1)
		s.runJob(j)
		s.queue.release(j.tenant)
	}
}

// deadlineFor resolves a job's execution deadline: spec override, server
// default, or none.
func (s *Server) deadlineFor(j *Job) time.Duration {
	if j.spec.DeadlineMS > 0 {
		return time.Duration(j.spec.DeadlineMS) * time.Millisecond
	}
	if j.spec.DeadlineMS < 0 {
		return 0
	}
	return s.cfg.DefaultDeadline
}

// runJob executes one admitted job and classifies its terminal state.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled or drain-rejected while still in the queue.
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.started = time.Now()
	queueWait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	s.met.queueSeconds.Observe(queueWait.Seconds())
	s.met.tenantQueueWait(j.tenant).Observe(queueWait.Seconds())
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	ctx := j.ctx
	if d := s.deadlineFor(j); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// One root span per job: the scheduler's phase spans (local execution)
	// or the cluster's dispatch/execute/retry spans all parent under it, so
	// a stitched Chrome trace shows each job as one tree across ranks.
	root := obs.Default().StartSpan(obs.TraceContext{}, "serve", "job "+j.id)
	root.SetAttr("app", j.spec.App)
	root.SetAttr("tenant", j.tenant)
	defer root.End()

	var result any
	var err error
	if s.cfg.Executor != nil {
		result, err = s.cfg.Executor.Execute(ctx, RemoteJob{
			ID:               j.id,
			Spec:             j.spec,
			Trace:            root.Context(),
			Emit:             j.hub.emit,
			ResumeCheckpoint: j.resumeCkpt,
			ResumeSteps:      j.resumeSteps,
		})
	} else {
		result, err = s.runLocal(ctx, j, root.Context())
	}

	var ck *CheckpointedError
	switch {
	case err == nil:
		s.gcCheckpoints(j)
		s.finish(j, StatusRunning, StatusDone, result, "", "")
	case errors.As(err, &ck):
		s.finish(j, StatusRunning, StatusCheckpointed, nil, ErrDrainCheckpoint.Error(), ck.Path)
	case context.Cause(j.ctx) == ErrDrainCheckpoint && j.prog != nil && j.prog.checkpoint != nil:
		path := filepath.Join(s.checkpointDir(), j.id+".ck")
		if ckErr := s.writeJobCheckpoint(j, path); ckErr != nil {
			s.finish(j, StatusRunning, StatusFailed, nil,
				fmt.Sprintf("drain checkpoint failed: %v (run: %v)", ckErr, err), "")
			return
		}
		s.finish(j, StatusRunning, StatusCheckpointed, nil, err.Error(), path)
	case ctx.Err() != nil:
		s.finish(j, StatusRunning, StatusCancelled, nil, err.Error(), "")
	default:
		s.gcCheckpoints(j)
		s.finish(j, StatusRunning, StatusFailed, nil, err.Error(), "")
	}
}

// runLocal executes a job on this process's schedulers, restoring a resumed
// job's checkpoint first.
func (s *Server) runLocal(ctx context.Context, j *Job, tc obs.TraceContext) (any, error) {
	if j.resumeCkpt != "" {
		if err := j.prog.Restore(j.resumeCkpt, j.resumeSteps); err != nil {
			return nil, fmt.Errorf("serve: resume job %s: %w", j.id, err)
		}
	}
	if j.prog.setTrace != nil {
		j.prog.setTrace(tc)
	}
	// Run under job-identity pprof labels: every goroutine the program
	// spawns (reduction workers included) inherits them, so a CPU or heap
	// profile scraped from /debug/pprof attributes samples to the job,
	// tenant and app — the scheduler adds the phase label underneath.
	var result any
	var err error
	pprof.Do(ctx, pprof.Labels("job", j.id, "tenant", j.tenant, "app", j.spec.App),
		func(ctx context.Context) {
			result, err = j.prog.run(ctx, j.hub.emit)
		})
	return result, err
}

// writeJobCheckpoint persists a drained job's combination map plus the
// resume sidecar (spec and completed-step count) a future server needs to
// pick the job back up.
func (s *Server) writeJobCheckpoint(j *Job, path string) error {
	if err := j.prog.checkpoint(path); err != nil {
		return err
	}
	steps := 0
	if j.prog.stepsDone != nil {
		steps = j.prog.stepsDone()
	}
	return writeResumeSidecar(sidecarPath(path), j.spec, steps)
}

// resumeSidecar is the restart metadata persisted next to a drain
// checkpoint: everything a future server needs to re-admit the job.
type resumeSidecar struct {
	Spec      JobSpec `json:"spec"`
	StepsDone int     `json:"steps_done"`
	// Checkpoint is the combination-map file, relative to the sidecar.
	Checkpoint string `json:"checkpoint"`
}

// sidecarPath maps a checkpoint path to its sidecar path.
func sidecarPath(ckPath string) string {
	return strings.TrimSuffix(ckPath, ".ck") + ".resume.json"
}

func writeResumeSidecar(path string, spec JobSpec, stepsDone int) error {
	sc := resumeSidecar{Spec: spec, StepsDone: stepsDone,
		Checkpoint: strings.TrimSuffix(filepath.Base(path), ".resume.json") + ".ck"}
	buf, err := json.Marshal(sc)
	if err != nil {
		return fmt.Errorf("serve: encode resume sidecar: %w", err)
	}
	if err := writeFileAtomic(path, buf); err != nil {
		return fmt.Errorf("serve: write resume sidecar: %w", err)
	}
	return nil
}

// writeFileAtomic writes buf to a temporary file and renames it over path,
// so a reader sees the old file or the whole new one.
func writeFileAtomic(path string, buf []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteResumeArtifacts persists checkpoint bytes received from a remote
// executor as dir/<id>.ck plus the resume sidecar RestoreCheckpoints looks
// for, and returns the checkpoint path. The cluster dispatcher uses it when
// a drained worker uploads its final state: the bytes cross the wire, the
// durable files live on the coordinator.
func WriteResumeArtifacts(dir, id string, spec JobSpec, ck []byte, steps int) (string, error) {
	ckPath := filepath.Join(dir, id+".ck")
	if err := writeFileAtomic(ckPath, ck); err != nil {
		return "", err
	}
	if err := writeResumeSidecar(sidecarPath(ckPath), spec, steps); err != nil {
		return "", err
	}
	return ckPath, nil
}

// RestoreCheckpoints scans the checkpoint directory for jobs a previous
// server drained and re-admits each one at the head of the queue: restored
// jobs carry the earliest virtual-finish tags (the queue is empty when this
// runs), so they execute before anything submitted afterwards. Call it
// right after NewServer, before serving HTTP. Restored jobs resume from
// their checkpointed combination map, skipping the steps already analyzed.
// It returns the restored job ids; unreadable sidecars are skipped with an
// error in the second return.
func (s *Server) RestoreCheckpoints() ([]string, error) {
	dir := s.checkpointDir()
	matches, err := filepath.Glob(filepath.Join(dir, "*.resume.json"))
	if err != nil {
		return nil, err
	}
	var ids []string
	var firstErr error
	for _, sidecar := range matches {
		buf, err := os.ReadFile(sidecar)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sc resumeSidecar
		if err := json.Unmarshal(buf, &sc); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: bad resume sidecar %s: %w", sidecar, err)
			}
			continue
		}
		ckPath := filepath.Join(dir, sc.Checkpoint)
		var prog *Program
		if s.cfg.Executor == nil {
			_, prog, err = Compile(sc.Spec, s.cfg.Mem, nil)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("serve: rebuild %s: %w", sidecar, err)
				}
				continue
			}
		}
		j, err := s.admit(sc.Spec, prog, ckPath, sc.StepsDone, sidecar)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.met.restored.Inc()
		ids = append(ids, j.id)
	}
	return ids, firstErr
}

// gcCheckpoints deletes a restored job's checkpoint and sidecar once the
// job no longer needs them: it completed, or failed terminally (a failed
// job would fail the same way again — the files only pin disk).
func (s *Server) gcCheckpoints(j *Job) {
	if j.resumeCkpt == "" {
		return
	}
	os.Remove(j.resumeCkpt)
	if j.resumeSidecar != "" {
		os.Remove(j.resumeSidecar)
	}
	s.met.checkpointsGCd.Inc()
}

func (s *Server) checkpointDir() string {
	if s.cfg.CheckpointDir != "" {
		return s.cfg.CheckpointDir
	}
	return "."
}

// finish moves j from an expected non-terminal status to a terminal one,
// closing its done channel and stream hub and recording the outcome
// metrics. It reports whether the transition applied; it is a no-op when
// the job already left the expected status (e.g. a cancel raced a drain
// flush).
func (s *Server) finish(j *Job, from, to Status, result any, errMsg, ckpath string) bool {
	j.mu.Lock()
	if j.status != from {
		j.mu.Unlock()
		return false
	}
	j.status = to
	j.result = result
	j.errMsg = errMsg
	j.checkpoint = ckpath
	j.finished = time.Now()
	started := j.started
	j.mu.Unlock()

	final := StreamRecord{Job: j.id}
	switch to {
	case StatusDone:
		final.Type = "result"
		final.Value = result
		s.met.jobsDone.Inc()
	case StatusFailed:
		final.Type = "error"
		final.Error = errMsg
		s.met.jobsFailed.Inc()
	case StatusCancelled:
		final.Type = "cancelled"
		final.Error = errMsg
		s.met.jobsCancelled.Inc()
	case StatusCheckpointed:
		final.Type = "checkpointed"
		final.Checkpoint = ckpath
		s.met.jobsCheckpointed.Inc()
	case StatusRejected:
		final.Type = "rejected"
		final.Error = errMsg
	}
	j.hub.close(final)
	s.met.streamDropped.Add(j.hub.droppedCount())
	if !started.IsZero() {
		s.met.jobSeconds.Observe(time.Since(started).Seconds())
	}
	close(j.done)
	return true
}

// Drain gracefully shuts the server down: new submissions are refused,
// queued jobs that never started are rejected, and in-flight jobs get the
// grace period to finish on their own. Jobs still running when it expires
// are cancelled with a checkpoint cause — checkpointable applications
// persist their combination map (plus a resume sidecar) to CheckpointDir
// and finish as StatusCheckpointed; the rest finish as StatusCancelled.
// Drain returns once every job is terminal and the workers have exited.
func (s *Server) Drain(grace time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.mu.Unlock()

	// Flush the queue: anything a worker has not picked up is rejected.
	// A worker may race us to a queued job — it then runs under the grace
	// period like any other in-flight job.
	for _, j := range s.queue.flush() {
		s.met.queueDepth.Add(-1)
		if s.finish(j, StatusQueued, StatusRejected, nil, ErrDraining.Error(), "") {
			s.met.rejectsDraining.Inc()
		}
	}
	s.queue.close()

	s.mu.Lock()
	var inflight []*Job
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		if !j.status.terminal() {
			inflight = append(inflight, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()

	allDone := make(chan struct{})
	go func() {
		for _, j := range inflight {
			<-j.done
		}
		close(allDone)
	}()
	select {
	case <-allDone:
	case <-time.After(grace):
		for _, j := range inflight {
			j.cancel(ErrDrainCheckpoint)
		}
		<-allDone
	}
	s.wg.Wait()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
