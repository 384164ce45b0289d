package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scipioneer/smart/internal/serve"
	"github.com/scipioneer/smart/internal/serve/client"
)

// serveWorkload is serve-mixed: an in-process serve.Server behind a loopback
// HTTP listener, driven through the client package by maxBusy closed-loop
// clients that replay a seeded job list, four small histogram jobs to one
// medium k-means job.
//
// op = Submit until the last record of Stream.
type serveWorkload struct {
	seed uint64
	sz   sizes
	refs map[string][]byte // canonical reference result per distinct spec
}

func newServeWorkload(seed uint64, sz sizes, _ string) workload {
	return &serveWorkload{seed: seed, sz: sz, refs: make(map[string][]byte)}
}

// Distinct emulator seeds per job class: few enough that the oracle runs
// every distinct spec once, enough that consecutive jobs differ.
const (
	serveSmallSeeds  = 8
	serveMediumSeeds = 4
)

func (w *serveWorkload) smallSpec(i int) serve.JobSpec {
	return serve.JobSpec{App: "histogram", Elems: w.sz.SVSmallElems, Steps: 1,
		Seed: w.seed*64 + uint64(i), Tenant: "adhoc"}
}

func (w *serveWorkload) mediumSpec(i int) serve.JobSpec {
	return serve.JobSpec{App: "kmeans", Elems: w.sz.SVMediumElems, Steps: w.sz.SVMediumSteps,
		Seed: w.seed*64 + 32 + uint64(i), Tenant: "sim", Params: serve.Params{Iters: w.sz.SVIters}}
}

type serveInstance struct {
	w    *serveWorkload
	jobs []serve.JobSpec // the seeded list, replayed in a cycle
	next int
	done []serveOutcome // the last repetition's jobs, for verify
}

type serveOutcome struct {
	spec serve.JobSpec
	last serve.StreamRecord
	err  error
}

func (w *serveWorkload) build() (instance, error) {
	// Every block of five jobs holds one medium job at a seeded position.
	s := &serveInstance{w: w}
	rng := rand.New(rand.NewSource(int64(w.seed)))
	for block := 0; block < 4*w.sz.SVJobs/5; block++ {
		medium := rng.Intn(5)
		for i := 0; i < 5; i++ {
			if i == medium {
				s.jobs = append(s.jobs, w.mediumSpec(rng.Intn(serveMediumSeeds)))
			} else {
				s.jobs = append(s.jobs, w.smallSpec(rng.Intn(serveSmallSeeds)))
			}
		}
	}
	return s, nil
}

func (s *serveInstance) close() {}

// server is one running service: the job server behind an HTTP listener on
// loopback, and the closed-loop clients talking to it.
type server struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	clients []*client.Client
}

// startServer starts a fresh service. A server keeps every job it ever ran,
// programs and results included, so one that lived for the whole run would
// hold memory in proportion to the jobs completed and make peak_rss_bytes
// worse whenever throughput got better; a repetition's server holds a
// repetition's jobs.
func startServer() (*server, error) {
	srv := serve.NewServer(serve.Config{Workers: 2, Queue: 16,
		Tenants: map[string]serve.TenantConfig{"sim": {Weight: 4}, "adhoc": {Weight: 1}}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	for i := 0; i < pinnedProcs; i++ {
		// A refusal (429/503) is a failed op, not something to retry away.
		s.clients = append(s.clients, client.New("http://"+ln.Addr().String(), client.WithRetries(0)))
	}
	return s, nil
}

func (s *server) stop() {
	s.hs.Close()
	<-s.served
	s.srv.Drain(time.Second)
}

func (s *serveInstance) rep(res *result) error {
	n := s.w.sz.SVJobs
	service, err := startServer()
	if err != nil {
		return err
	}
	defer service.stop()
	s.done = make([]serveOutcome, n)
	var claimed atomic.Int64
	var mu sync.Mutex // guards res and the recorder's op numbering across clients
	var rejected, elems int
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range service.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				i := int(claimed.Add(1)) - 1
				if i >= n {
					return
				}
				spec := s.jobs[(s.next+i)%len(s.jobs)]
				out := &s.done[i]
				out.spec = spec
				t0 := time.Now()
				view, err := cl.Submit(ctx, spec)
				if err == nil {
					err = cl.Stream(ctx, view.ID, func(r serve.StreamRecord) error {
						out.last = r
						return nil
					})
				}
				t2 := time.Now()
				out.err = err
				var final serve.JobView
				if err == nil && res.tracing() {
					final, err = cl.Get(ctx, view.ID) // timestamps for the layer split
				}
				mu.Lock()
				var refused *client.StatusError
				if errors.As(out.err, &refused) && (refused.Code == http.StatusTooManyRequests || refused.Code == http.StatusServiceUnavailable) {
					rejected++
				}
				res.op(t2.Sub(t0).Seconds())
				if out.err == nil {
					elems += spec.Elems * spec.Steps
				}
				if err == nil && res.tracing() {
					s.attribute(res, spec, final, t0, t2)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.work(elems, time.Since(start))
	res.observe("serve.rejected", float64(rejected))
	s.next = (s.next + n) % len(s.jobs)
	return nil
}

// attribute splits one job's client-observed time with the server's own
// timestamps: queued (submitted to started), executing (started to
// finished), and the rest, which is the front: HTTP, JSON, admission,
// Compile and the stream's last hop.
func (s *serveInstance) attribute(res *result, spec serve.JobSpec, v serve.JobView, t0, t2 time.Time) {
	submitted, err1 := time.Parse(time.RFC3339Nano, v.Submitted)
	started, err2 := time.Parse(time.RFC3339Nano, v.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, v.Finished)
	if err1 != nil || err2 != nil || err3 != nil {
		return
	}
	rec := res.rec
	op := rec.newOp()
	root := rec.add(0, op, "serve", "front: HTTP, JSON, admission, Compile", t0, t2)
	rec.add(root, op, "serve", "queued: WFQ, wait for a worker", submitted, started)
	rec.add(root, op, "core", "job execution: emulator, scheduler runs, emit", started, finished)
	total := t2.Sub(t0)
	queue, exec := started.Sub(submitted), finished.Sub(started)
	res.observe("serve.queue_wait_s", queue.Seconds())
	res.observe("serve.exec_s", exec.Seconds())
	res.observe("serve.front_s", (total - queue - exec).Seconds())
	if spec.App == "kmeans" {
		res.observe("serve.medium_op_s", total.Seconds())
	} else {
		res.observe("serve.small_op_s", total.Seconds())
	}
}

// calibrate times Compile on its own: it runs inside Submit, so it is part
// of every op's front.
func (s *serveInstance) calibrate(res *result) error {
	for i := 0; i < calibrationRounds; i++ {
		for _, spec := range []serve.JobSpec{s.w.smallSpec(i), s.w.mediumSpec(i)} {
			start := time.Now()
			_, _, err := serve.Compile(spec, nil, nil)
			end := time.Now()
			if err != nil {
				return err
			}
			res.rec.add(0, 0, "serve", "Compile "+spec.App, start, end)
			res.observe("serve.compile_s", end.Sub(start).Seconds())
		}
	}
	return nil
}

// canonicalResult re-encodes a job result without its "stats" block, which
// holds timings: what is left is a function of the spec alone.
func canonicalResult(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	delete(m, "stats")
	return json.Marshal(m)
}

// reference is the oracle: the same spec compiled and run in process,
// without server, queue or HTTP.
func (w *serveWorkload) reference(spec serve.JobSpec) ([]byte, error) {
	key := fmt.Sprintf("%s/%d", spec.App, spec.Seed)
	if ref, ok := w.refs[key]; ok {
		return ref, nil
	}
	_, prog, err := serve.Compile(spec, nil, nil)
	if err != nil {
		return nil, err
	}
	out, err := prog.Run(context.Background(), func(serve.StreamRecord) {})
	if err != nil {
		return nil, err
	}
	ref, err := canonicalResult(out)
	if err != nil {
		return nil, err
	}
	w.refs[key] = ref
	return ref, nil
}

func (s *serveInstance) verify(res *result) {
	for _, out := range s.done {
		res.checked++
		if out.err != nil {
			res.fail("job %s seed %d: %v", out.spec.App, out.spec.Seed, out.err)
			continue
		}
		if out.last.Type != "result" {
			res.fail("job %s seed %d: stream ended with a %q record: %s", out.spec.App, out.spec.Seed, out.last.Type, out.last.Error)
			continue
		}
		want, err := s.w.reference(out.spec)
		if err != nil {
			res.fail("reference for %s seed %d: %v", out.spec.App, out.spec.Seed, err)
			continue
		}
		got, err := canonicalResult(out.last.Value)
		if err != nil || !bytes.Equal(got, want) {
			res.fail("job %s seed %d: result differs from the in-process run (%v)", out.spec.App, out.spec.Seed, err)
		}
	}
	s.done = nil
}
