package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/scipioneer/smart/internal/codec"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/serve"
)

// Config configures the coordinator-side dispatcher.
type Config struct {
	// RetryBudget is how many times a single-rank job lost to a dead worker
	// is re-dispatched before it fails terminally (default 2). Multi-rank
	// jobs are never retried: their combination state is spread across the
	// member ranks, so one member's death loses part of it.
	RetryBudget int
	// Heartbeat is the worker beat interval (default 100ms); a worker whose
	// uplink has been silent for HeartbeatTimeout (default 10×Heartbeat) is
	// declared dead even if its connection is still up.
	Heartbeat        time.Duration
	HeartbeatTimeout time.Duration
	// CheckpointDir receives drain checkpoints and resume sidecars uploaded
	// by workers (default os.TempDir()).
	CheckpointDir string
	// CancelWait bounds how long Execute waits for a cancelled job's workers
	// to acknowledge before giving up on them (default 10s).
	CancelWait time.Duration
	// Registry receives the dispatcher metrics (default obs.DefaultRegistry()).
	Registry *obs.Registry
	// Watch, when non-nil, is the stall watch the dispatcher brackets every
	// assignment in: the cluster's existing stall watchdog then names ranks
	// wedged inside a job the same way it names ranks wedged in a
	// collective, on the same clock the heartbeat monitor runs on.
	Watch *obs.StallWatch
	// CodecMask is the codec-support mask this coordinator advertises for
	// control-plane envelopes (zero means codec.PreferredMask(): everything
	// the build supports unless the process pinned a codec). Each worker
	// link uses codec.Negotiate of this mask and the worker's hello mask, so
	// a mismatched pair degrades to raw JSON instead of failing.
	CodecMask uint32
}

func (cfg *Config) fill() {
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 2
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 100 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 10 * cfg.Heartbeat
	}
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = os.TempDir()
	}
	if cfg.CancelWait <= 0 {
		cfg.CancelWait = 10 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.DefaultRegistry()
	}
	if cfg.CodecMask == 0 {
		cfg.CodecMask = codec.PreferredMask()
	}
}

// workerState is the dispatcher's view of one worker rank.
type workerState struct {
	rank     int
	alive    bool
	inflight int
	lastSeen time.Time
	// enc is the envelope codec negotiated from the worker's hello mask;
	// codec.None until the hello arrives (and forever, for an old worker
	// that never sends a mask).
	enc codec.Encoding
}

// dispatch is one job's dispatch state.
type dispatch struct {
	job serve.RemoteJob
	// members are the world ranks currently executing the job; the first is
	// the lead rank, which reports the result. pending counts members whose
	// result envelope is outstanding.
	members []int
	pending int
	retries int
	// ckpt/steps hold the latest per-step checkpoint upload — the restore
	// point a retry starts from.
	ckpt  []byte
	steps int
	// Outcome, filled by the lead's result envelope (or a death).
	result       any
	errMsg       string
	checkpointed bool
	finalCkpt    []byte
	finished     bool
	done         chan struct{}
	// watchTokens are the stall-watch entries per member rank.
	watchTokens map[int]uint64
}

// Dispatcher is the coordinator's execution plane: it implements
// serve.Executor over a rank world whose rank 0 it runs on. Worker ranks
// are 1..size-1; rank 0 never executes jobs — it owns admission, dispatch,
// retry, and the metrics gather.
type Dispatcher struct {
	comm *mpi.Comm
	cfg  Config
	met  coordMetrics

	mu       sync.Mutex
	workers  map[int]*workerState
	jobs     map[string]*dispatch
	nextBand int
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewDispatcher builds the dispatcher on comm (which must be rank 0 of a
// world with at least one worker rank) and starts its uplink receivers and
// heartbeat monitor.
func NewDispatcher(comm *mpi.Comm, cfg Config) (*Dispatcher, error) {
	if comm.Rank() != 0 {
		return nil, fmt.Errorf("cluster: dispatcher must run on rank 0, not %d", comm.Rank())
	}
	if comm.Size() < 2 {
		return nil, fmt.Errorf("cluster: world of size %d has no worker ranks", comm.Size())
	}
	cfg.fill()
	d := &Dispatcher{
		comm:    comm,
		cfg:     cfg,
		met:     newCoordMetrics(cfg.Registry),
		workers: make(map[int]*workerState),
		jobs:    make(map[string]*dispatch),
		stop:    make(chan struct{}),
	}
	// The worker map is complete before the first receiver starts: the
	// receivers read it under d.mu, and these writes take no lock.
	now := time.Now()
	for r := 1; r < comm.Size(); r++ {
		d.workers[r] = &workerState{rank: r, alive: true, lastSeen: now}
		d.met.workers.Add(1)
	}
	for r := 1; r < comm.Size(); r++ {
		d.wg.Add(1)
		go d.receiver(r)
	}
	d.wg.Add(1)
	go d.monitor()
	return d, nil
}

// Workers reports the currently live worker count.
func (d *Dispatcher) Workers() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, w := range d.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// Execute implements serve.Executor: dispatch the job, then wait for its
// terminal envelope — riding out worker deaths and retries, which the
// receiver goroutines handle underneath.
func (d *Dispatcher) Execute(ctx context.Context, job serve.RemoteJob) (any, error) {
	disp := &dispatch{job: job, done: make(chan struct{}), watchTokens: make(map[int]uint64)}
	if job.ResumeCheckpoint != "" {
		// A job restored from a previous coordinator life: ship the on-disk
		// checkpoint bytes to whatever worker gets it.
		buf, err := os.ReadFile(job.ResumeCheckpoint)
		if err != nil {
			return nil, fmt.Errorf("cluster: read resume checkpoint: %w", err)
		}
		disp.ckpt, disp.steps = buf, job.ResumeSteps
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, errors.New("cluster: dispatcher shut down")
	}
	d.jobs[job.ID] = disp
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.jobs, job.ID)
		d.mu.Unlock()
	}()

	if err := d.dispatchJob(disp); err != nil {
		return nil, err
	}
	select {
	case <-disp.done:
		return d.outcome(disp)
	case <-ctx.Done():
		cause := context.Cause(ctx)
		drain := errors.Is(cause, serve.ErrDrainCheckpoint)
		d.cancelMembers(disp, cause.Error(), drain)
		select {
		case <-disp.done:
			return d.outcome(disp)
		case <-time.After(d.cfg.CancelWait):
			return nil, fmt.Errorf("cluster: job %s cancel unacknowledged by %v: %w",
				job.ID, disp.members, cause)
		}
	}
}

// outcome converts a finished dispatch into Execute's contract.
func (d *Dispatcher) outcome(disp *dispatch) (any, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if disp.checkpointed {
		path, err := serve.WriteResumeArtifacts(d.cfg.CheckpointDir, disp.job.ID,
			disp.job.Spec, disp.finalCkpt, disp.steps)
		if err != nil {
			return nil, fmt.Errorf("cluster: persist drain checkpoint: %w", err)
		}
		return nil, &serve.CheckpointedError{Path: path, StepsDone: disp.steps}
	}
	if disp.errMsg != "" {
		return nil, errors.New(disp.errMsg)
	}
	return disp.result, nil
}

// dispatchJob picks the job's worker ranks and sends the assignments.
// Called for the initial dispatch and for every retry.
func (d *Dispatcher) dispatchJob(disp *dispatch) error {
	n := disp.job.Spec.Ranks
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	var alive []*workerState
	for _, w := range d.workers {
		if w.alive {
			alive = append(alive, w)
		}
	}
	if len(alive) < n {
		d.mu.Unlock()
		return fmt.Errorf("cluster: job %s needs %d worker ranks, %d alive", disp.job.ID, n, len(alive))
	}
	// Least-loaded first, rank as the tiebreak; members sorted ascending so
	// every member passes SubComm the same rank order.
	sort.Slice(alive, func(i, j int) bool {
		if alive[i].inflight != alive[j].inflight {
			return alive[i].inflight < alive[j].inflight
		}
		return alive[i].rank < alive[j].rank
	})
	members := make([]int, n)
	for i := 0; i < n; i++ {
		members[i] = alive[i].rank
		alive[i].inflight++
	}
	sort.Ints(members)
	disp.members = members
	disp.pending = n
	d.nextBand++
	band := d.nextBand
	env := envelope{
		Kind:    kindAssign,
		Job:     disp.job.ID,
		Spec:    disp.job.Spec,
		Members: members,
		Band:    band,
		TraceID: disp.job.Trace.TraceID,
		SpanID:  disp.job.Trace.SpanID,
		Codecs:  d.cfg.CodecMask,
	}
	if n == 1 && len(disp.ckpt) > 0 {
		env.Resume, env.ResumeSteps = disp.ckpt, disp.steps
	}
	if d.cfg.Watch != nil {
		for _, r := range members {
			disp.watchTokens[r] = d.cfg.Watch.Enter(r, "job "+disp.job.ID)
		}
	}
	d.mu.Unlock()

	sp := obs.Default().StartSpan(disp.job.Trace, "cluster", "dispatch "+disp.job.ID)
	sp.SetAttr("members", fmt.Sprint(members))
	sp.SetAttr("retry", disp.retries)
	defer sp.End()
	d.met.dispatched.Inc()
	for _, r := range members {
		if err := send(d.comm, r, tagCtl, d.encFor(r), env); err != nil {
			// The connection is already gone; the receiver's death handling
			// owns the retry, so the job is not failed here.
			d.handleDeath(r)
		}
	}
	return nil
}

// cancelMembers sends a cancel to every live member of the dispatch.
func (d *Dispatcher) cancelMembers(disp *dispatch, cause string, drain bool) {
	d.mu.Lock()
	var targets []int
	for _, r := range disp.members {
		if w := d.workers[r]; w != nil && w.alive {
			targets = append(targets, r)
		}
	}
	d.mu.Unlock()
	for _, r := range targets {
		send(d.comm, r, tagCtl, d.encFor(r), envelope{Kind: kindCancel, Job: disp.job.ID, Err: cause, Drain: drain})
	}
}

// receiver drains one worker's uplink. A receive error means the worker's
// endpoint dropped — the fast path of rank-death detection.
func (d *Dispatcher) receiver(rank int) {
	defer d.wg.Done()
	for {
		env, err := recvEnv(d.comm, rank, tagUp)
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if !closed {
				d.handleDeath(rank)
			}
			return
		}
		d.mu.Lock()
		if w := d.workers[rank]; w != nil {
			w.lastSeen = time.Now()
		}
		disp := d.jobs[env.Job]
		// Per-job messages only count from current members: a worker that
		// was declared dead on a stale heartbeat but is actually alive must
		// not interleave its records with the retry's.
		member := disp != nil && !disp.finished && memberOf(disp.members, rank)
		d.mu.Unlock()
		switch env.Kind {
		case kindHello:
			// lastSeen already refreshed; record the worker's codec support
			// so every later control message to it uses the negotiated
			// encoding (a maskless hello from an old build stays on raw).
			d.mu.Lock()
			if w := d.workers[rank]; w != nil {
				w.enc = codec.Negotiate(d.cfg.CodecMask, env.Codecs)
			}
			d.mu.Unlock()
		case kindBeat:
			// lastSeen already refreshed; every uplink message is a beat.
		case kindEmit:
			if member && env.Record != nil {
				disp.job.Emit(*env.Record)
			}
		case kindCkpt:
			d.mu.Lock()
			if disp != nil && !disp.finished && memberOf(disp.members, rank) {
				disp.ckpt, disp.steps = env.Ckpt, env.Steps
			}
			d.mu.Unlock()
		case kindResult:
			d.handleResult(rank, env)
		}
	}
}

// encFor reports the envelope codec negotiated with worker rank.
func (d *Dispatcher) encFor(rank int) codec.Encoding {
	d.mu.Lock()
	defer d.mu.Unlock()
	if w := d.workers[rank]; w != nil {
		return w.enc
	}
	return codec.None
}

func memberOf(members []int, rank int) bool {
	for _, r := range members {
		if r == rank {
			return true
		}
	}
	return false
}

// handleResult processes a member's terminal envelope for its job.
func (d *Dispatcher) handleResult(rank int, env envelope) {
	d.mu.Lock()
	if w := d.workers[rank]; w != nil && w.inflight > 0 {
		w.inflight--
	}
	disp := d.jobs[env.Job]
	if disp == nil || disp.finished || !memberOf(disp.members, rank) {
		// A job already finished (or re-dispatched elsewhere after this
		// worker was declared dead); the inflight slot was the only state
		// to reconcile.
		d.mu.Unlock()
		return
	}
	if d.cfg.Watch != nil {
		if tok, ok := disp.watchTokens[rank]; ok {
			d.cfg.Watch.Exit(tok)
			delete(disp.watchTokens, rank)
		}
	}
	if rank == disp.members[0] { // the lead carries the job outcome
		switch {
		case env.Checkpointed:
			disp.checkpointed = true
			disp.finalCkpt, disp.steps = env.Ckpt, env.Steps
		case env.Err != "":
			disp.errMsg = env.Err
		default:
			var v any
			if err := json.Unmarshal(env.Result, &v); err != nil {
				disp.errMsg = fmt.Sprintf("cluster: decode result: %v", err)
			} else {
				disp.result = v
			}
		}
	}
	disp.pending--
	fin := disp.pending <= 0
	if fin {
		disp.finished = true
	}
	d.mu.Unlock()
	if fin {
		close(disp.done)
	}
}

// monitor declares workers dead when their heartbeat goes stale — the slow
// path that catches a wedged-but-connected rank.
func (d *Dispatcher) monitor() {
	defer d.wg.Done()
	tick := time.NewTicker(d.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			d.mu.Lock()
			var stale []int
			for r, w := range d.workers {
				if w.alive && time.Since(w.lastSeen) > d.cfg.HeartbeatTimeout {
					stale = append(stale, r)
				}
			}
			d.mu.Unlock()
			for _, r := range stale {
				d.handleDeath(r)
			}
		}
	}
}

// handleDeath marks a worker dead and recovers (or terminally fails) every
// job it was a member of.
func (d *Dispatcher) handleDeath(rank int) {
	d.mu.Lock()
	w := d.workers[rank]
	if w == nil || !w.alive || d.closed {
		d.mu.Unlock()
		return
	}
	w.alive = false
	w.inflight = 0
	var affected []*dispatch
	for _, disp := range d.jobs {
		if !disp.finished && memberOf(disp.members, rank) {
			affected = append(affected, disp)
		}
	}
	d.mu.Unlock()
	d.met.rankDeaths.Inc()
	d.met.workers.Add(-1)
	for _, disp := range affected {
		d.recover(disp, rank)
	}
}

// recover re-dispatches (single-rank, budget left) or terminally fails a
// job that lost member rank.
func (d *Dispatcher) recover(disp *dispatch, rank int) {
	d.mu.Lock()
	if disp.finished || !memberOf(disp.members, rank) {
		d.mu.Unlock()
		return
	}
	if d.cfg.Watch != nil {
		for r, tok := range disp.watchTokens {
			d.cfg.Watch.Exit(tok)
			delete(disp.watchTokens, r)
		}
	}
	single := len(disp.members) == 1
	if single && disp.retries < d.cfg.RetryBudget {
		disp.retries++
		d.mu.Unlock()
		d.met.retried.Inc()
		disp.job.Emit(serve.StreamRecord{Type: "span", Job: disp.job.ID,
			Phase: fmt.Sprintf("retry after rank %d death", rank)})
		if err := d.dispatchJob(disp); err != nil {
			d.finishDispatch(disp, err.Error())
			d.met.terminalFailures.Inc()
		}
		return
	}
	var msg string
	var survivors []int
	if single {
		msg = fmt.Sprintf("cluster: worker rank %d died; retry budget (%d) exhausted", rank, d.cfg.RetryBudget)
	} else {
		msg = fmt.Sprintf("cluster: worker rank %d died; multi-rank jobs are not retryable", rank)
		for _, r := range disp.members {
			if w := d.workers[r]; r != rank && w != nil && w.alive {
				survivors = append(survivors, r)
			}
		}
	}
	disp.finished = true
	disp.errMsg = msg
	d.mu.Unlock()
	for _, r := range survivors {
		send(d.comm, r, tagCtl, d.encFor(r), envelope{Kind: kindCancel, Job: disp.job.ID, Err: msg})
	}
	d.met.terminalFailures.Inc()
	close(disp.done)
}

// finishDispatch terminally fails a dispatch unless it already finished.
func (d *Dispatcher) finishDispatch(disp *dispatch, errMsg string) {
	d.mu.Lock()
	if disp.finished {
		d.mu.Unlock()
		return
	}
	disp.finished = true
	disp.errMsg = errMsg
	d.mu.Unlock()
	close(disp.done)
}

// Shutdown ends the dispatch plane after the front door has drained: when
// every worker is still alive it runs a final obs.Gather collective (the
// cluster-wide metrics merge, smart_cluster_* families included) before
// telling the workers to exit; with any rank dead the collective would hang,
// so it is skipped and the snapshot is nil.
func (d *Dispatcher) Shutdown() (*obs.ClusterSnapshot, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, nil
	}
	d.closed = true
	allAlive := true
	var alive []int
	for r := 1; r < d.comm.Size(); r++ {
		if w := d.workers[r]; w != nil && w.alive {
			alive = append(alive, r)
		} else {
			allAlive = false
		}
	}
	d.mu.Unlock()
	close(d.stop)

	var cs *obs.ClusterSnapshot
	var err error
	if allAlive {
		for _, r := range alive {
			send(d.comm, r, tagCtl, d.encFor(r), envelope{Kind: kindGather})
		}
		cs, err = obs.Gather(d.comm, d.cfg.Registry)
	}
	for _, r := range alive {
		send(d.comm, r, tagCtl, d.encFor(r), envelope{Kind: kindShutdown})
	}
	// The workers gauge counts this dispatcher's live workers; once they
	// are told to exit it must drop back, or a later dispatcher on the same
	// registry would report them on top of its own.
	d.met.workers.Add(-int64(len(alive)))
	return cs, err
}
