// Command smartd runs the Smart analytics job service: an HTTP daemon that
// accepts typed analytics jobs, executes them on the in-situ runtime under
// admission control, streams results, and drains gracefully — in-flight
// jobs finish within the grace period or are checkpointed for a future
// server to resume, queued jobs are rejected, and the process exits 0.
//
// Usage:
//
//	smartd [-addr :8080] [-queue 16] [-workers 2] [-mem-bytes 0]
//	       [-deadline 0] [-grace 10s] [-ckdir DIR] [-flight 256]
//	       [-world 1] [-rank 0] [-coordinator HOST:PORT]
//	       [-tenant name=weight[:quota[:class]]] [-retry-budget 2]
//	       [-heartbeat 100ms] [-codec auto]
//
// With -world N (N > 1) smartd runs in cluster mode: rank 0 owns the HTTP
// front door and dispatches jobs to worker ranks 1..N-1, which execute them
// over the rank mesh (multi-rank jobs combine globally across a per-job
// sub-communicator) and stream results back. Without -coordinator all N
// ranks run inside this process; with -coordinator each rank is its own
// smartd process — rank 0 listens at the rendezvous address, the others
// (-rank R -coordinator HOST:PORT) dial it and run headless execution
// loops, no HTTP. A worker rank that dies mid-job is detected by connection
// drop or stale heartbeat; single-rank jobs are retried on a surviving rank
// from their last per-step checkpoint, bounded by -retry-budget.
//
// -tenant assigns weighted-fair-queueing shares, in-flight quotas and
// priority classes ("high", "normal", "low") per tenant; it repeats.
//
// SIGTERM or SIGINT triggers the drain. SIGQUIT dumps the flight recorder
// (the last -flight spans and metric marks) to stderr without exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/scipioneer/smart/internal/cluster"
	"github.com/scipioneer/smart/internal/codec"
	"github.com/scipioneer/smart/internal/memmodel"
	"github.com/scipioneer/smart/internal/mpi"
	"github.com/scipioneer/smart/internal/obs"
	"github.com/scipioneer/smart/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "smartd:", err)
		os.Exit(1)
	}
}

// parseTenant parses one -tenant flag value, "name=weight[:quota[:class]]",
// into m. Empty fields keep their defaults: "-tenant batch=::low" is a
// weight-1, uncapped, low-class tenant.
func parseTenant(m map[string]serve.TenantConfig, v string) error {
	name, spec, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("tenant %q: want name=weight[:quota[:class]]", v)
	}
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return fmt.Errorf("tenant %q: too many fields, want name=weight[:quota[:class]]", v)
	}
	var tc serve.TenantConfig
	if parts[0] != "" {
		w, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || w < 0 {
			return fmt.Errorf("tenant %q: bad weight %q", v, parts[0])
		}
		tc.Weight = w
	}
	if len(parts) > 1 && parts[1] != "" {
		q, err := strconv.Atoi(parts[1])
		if err != nil || q < 0 {
			return fmt.Errorf("tenant %q: bad quota %q", v, parts[1])
		}
		tc.Quota = q
	}
	if len(parts) > 2 && parts[2] != "" {
		tc.Class = parts[2]
	}
	switch tc.Class {
	case "", serve.ClassHigh, serve.ClassNormal, serve.ClassLow:
	default:
		return fmt.Errorf("tenant %q: unknown class %q", v, tc.Class)
	}
	m[name] = tc
	return nil
}

// run is the daemon body, factored out of main so the shutdown path is
// testable in-process: when ready is non-nil it receives the bound listen
// address once the service is up (a headless worker rank sends "").
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("smartd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		queue    = fs.Int("queue", 16, "bounded job-queue capacity")
		workers  = fs.Int("workers", 2, "worker pool size (concurrent jobs)")
		memBytes = fs.Int64("mem-bytes", 0, "virtual memory node capacity for admission control (0 = off)")
		deadline = fs.Duration("deadline", 0, "default per-job execution deadline (0 = none)")
		grace    = fs.Duration("grace", 10*time.Second, "drain grace period before inflight jobs are checkpointed")
		ckdir    = fs.String("ckdir", "", "checkpoint directory for drained jobs (default os temp dir); when set, checkpointed jobs found there are resumed at boot")
		flight   = fs.Int("flight", 256, "flight-recorder capacity in events (0 = off); SIGQUIT dumps it to stderr")
		world    = fs.Int("world", 1, "cluster world size; > 1 enables multi-rank dispatch")
		rank     = fs.Int("rank", 0, "this process's rank in a -coordinator world (0 = coordinator)")
		coord    = fs.String("coordinator", "", "rank 0 rendezvous address for a cross-process world (empty runs every rank in this process)")
		retry    = fs.Int("retry-budget", 2, "re-dispatches of a single-rank job after its worker rank dies")
		beat     = fs.Duration("heartbeat", 100*time.Millisecond, "cluster heartbeat interval (worker beats; coordinator declares silence death at 10x)")
		codecPin = fs.String("codec", "auto", "wire codec: auto (negotiate best), none, flate, or block")
	)
	tenants := map[string]serve.TenantConfig{}
	fs.Func("tenant", "tenant WFQ spec name=weight[:quota[:class]] (repeatable)", func(v string) error {
		return parseTenant(tenants, v)
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *world < 1 {
		return fmt.Errorf("-world must be >= 1, got %d", *world)
	}
	if *rank < 0 || *rank >= *world {
		return fmt.Errorf("-rank %d outside world of size %d", *rank, *world)
	}
	if *rank > 0 && *coord == "" {
		return errors.New("-rank > 0 needs -coordinator to find rank 0")
	}
	if *coord != "" && *world < 2 {
		return errors.New("-coordinator needs -world >= 2")
	}
	if *codecPin != "auto" {
		enc, err := codec.Parse(*codecPin)
		if err != nil {
			return fmt.Errorf("-codec: %w", err)
		}
		// Pinning narrows this process's advertised support to one codec;
		// every transport and control-plane negotiation then lands on it (or
		// falls back to none against a peer that lacks it).
		codec.SetPreferred(enc)
	}

	if *flight > 0 {
		fr := obs.NewFlightRecorder(*flight)
		obs.Default().SetFlightRecorder(fr)
		stopDump := obs.DumpOnSignal(fr, syscall.SIGQUIT, os.Stderr)
		defer stopDump()
	}

	var mem *memmodel.Node
	if *memBytes > 0 {
		mem = memmodel.NewNode(*memBytes)
	}

	// A worker rank is headless: it joins the world, runs the job-execution
	// loop, and exits when the coordinator shuts it down.
	if *rank > 0 {
		return runWorkerRank(*world, *rank, *coord, *beat, mem, out, ready)
	}

	cfg := serve.Config{
		Queue:           *queue,
		Workers:         *workers,
		Tenants:         tenants,
		DefaultDeadline: *deadline,
		CheckpointDir:   *ckdir,
		Mem:             mem,
	}
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = os.TempDir()
	} else if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("checkpoint dir: %w", err)
	}

	// Cluster mode: build the rank world, park the dispatcher between the
	// serving layer and the worker ranks, and (in the single-process form)
	// host the worker loops on goroutines.
	var disp *cluster.Dispatcher
	var comm *mpi.Comm
	var workerComms []*mpi.Comm
	if *world > 1 {
		var err error
		if *coord != "" {
			comm, err = mpi.JoinTCPWorld(*world, 0, *coord)
			if err != nil {
				return fmt.Errorf("join world: %w", err)
			}
		} else {
			comms, err := mpi.NewTCPWorld(*world)
			if err != nil {
				return fmt.Errorf("build world: %w", err)
			}
			comm = comms[0]
			workerComms = comms[1:]
			for _, wc := range workerComms {
				go func(wc *mpi.Comm) {
					if err := cluster.Worker(wc, cluster.WorkerConfig{
						Heartbeat: *beat, Mem: mem,
						WorkDir: cfg.CheckpointDir, Registry: obs.NewRegistry(),
					}); err != nil {
						fmt.Fprintf(out, "smartd: worker rank %d: %v\n", wc.Rank(), err)
					}
				}(wc)
			}
		}
		disp, err = cluster.NewDispatcher(comm, cluster.Config{
			RetryBudget:   *retry,
			Heartbeat:     *beat,
			CheckpointDir: cfg.CheckpointDir,
		})
		if err != nil {
			return err
		}
		cfg.Executor = disp
		fmt.Fprintf(out, "smartd: coordinating a world of %d (%d worker ranks)\n", *world, *world-1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.NewServer(cfg)
	if *ckdir != "" {
		// An explicit checkpoint dir opts into durable resume: jobs a
		// previous smartd drained restart here, ahead of new submissions.
		ids, err := srv.RestoreCheckpoints()
		if err != nil {
			fmt.Fprintf(out, "smartd: checkpoint restore: %v\n", err)
		}
		if len(ids) > 0 {
			fmt.Fprintf(out, "smartd: restored %d checkpointed job(s): %s\n", len(ids), strings.Join(ids, ", "))
		}
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(out, "smartd: serving on %s (queue=%d workers=%d)\n", ln.Addr(), *queue, *workers)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(out, "smartd: %v: draining (grace %v)\n", s, *grace)
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}

	// Drain first — it refuses new work, rejects queued jobs, and gives
	// in-flight jobs the grace period to finish before checkpointing them —
	// then stop the HTTP listener so late status/stream readers still get
	// their terminal records.
	srv.Drain(*grace)
	if disp != nil {
		// The front door is drained, so the dispatch plane is idle: run the
		// final cluster-wide metrics gather and release the worker ranks.
		cs, err := disp.Shutdown()
		switch {
		case err != nil:
			fmt.Fprintf(out, "smartd: cluster metrics gather: %v\n", err)
		case cs != nil:
			fmt.Fprintf(out, "smartd: cluster metrics merged across %d ranks\n", len(cs.Ranks))
		}
		comm.Close()
		for _, wc := range workerComms {
			wc.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http shutdown: %w", err)
	}
	for _, line := range jobSummaries(srv.List()) {
		fmt.Fprintln(out, line)
	}
	fmt.Fprintln(out, "smartd: drained, exiting")
	return nil
}

// runWorkerRank is the headless body of a non-zero rank: join the world,
// execute dispatched jobs until the coordinator's shutdown (or the link to
// it drops), answering a local SIGTERM by closing the mesh so the
// coordinator sees the death and retries this rank's jobs elsewhere.
func runWorkerRank(world, rank int, coord string, beat time.Duration, mem *memmodel.Node, out io.Writer, ready chan<- string) error {
	comm, err := mpi.JoinTCPWorld(world, rank, coord)
	if err != nil {
		return fmt.Errorf("join world: %w", err)
	}
	defer comm.Close()
	fmt.Fprintf(out, "smartd: rank %d/%d joined via %s\n", rank, world, coord)
	if ready != nil {
		ready <- ""
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan error, 1)
	go func() {
		done <- cluster.Worker(comm, cluster.WorkerConfig{Heartbeat: beat, Mem: mem})
	}()
	select {
	case err := <-done:
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "smartd: rank %d released by coordinator, exiting\n", rank)
		return nil
	case s := <-sig:
		fmt.Fprintf(out, "smartd: rank %d: %v: leaving the world\n", rank, s)
		comm.Close()
		<-done
		return nil
	}
}

// jobSummaries renders one closing log line per job the server saw, with the
// runtime stats snapshot the serving layer embeds in completed results. The
// snapshot is what makes this safe to print at drain time: it was copied out
// of the scheduler with atomic loads when the job finished, so no drain-time
// read races a worker.
func jobSummaries(jobs []serve.JobView) []string {
	lines := make([]string, 0, len(jobs))
	for _, jv := range jobs {
		line := fmt.Sprintf("smartd: job %s app=%s status=%s", jv.ID, jv.App, jv.Status)
		if m, ok := jv.Result.(map[string]any); ok {
			if st, ok := m["stats"].(map[string]any); ok {
				line += fmt.Sprintf(" chunks=%v reduction_ns=%v local_combine_ns=%v global_combine_ns=%v serialized_bytes=%v",
					st["chunks_processed"], st["reduction_ns"], st["local_combine_ns"],
					st["global_combine_ns"], st["serialized_bytes"])
			}
		}
		if jv.Error != "" {
			line += " error=" + jv.Error
		}
		lines = append(lines, line)
	}
	return lines
}
