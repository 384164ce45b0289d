package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	httppprof "net/http/pprof"

	"github.com/scipioneer/smart/internal/obs"
)

// Handler returns the service's HTTP API on a stdlib mux:
//
//	POST   /v1/jobs          submit a JobSpec; ?wait=1 blocks until terminal
//	GET    /v1/jobs          list all jobs
//	GET    /v1/jobs/{id}     one job's state
//	GET    /v1/jobs/{id}/stream  NDJSON result stream (replay + live)
//	DELETE /v1/jobs/{id}     cancel a job
//	GET    /v1/apps          registered application names
//	GET    /healthz          liveness + drain state
//	GET    /metrics[.json]   the obs registry (Prometheus text / JSON)
//	GET    /debug/pprof/*    runtime profiles, labeled by job/tenant/phase
//
// Admission failures map to HTTP: queue full and memory pressure are 429
// with a Retry-After hint, draining is 503; a bad spec is 400.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/apps", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"apps": Apps()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	metrics := obs.Handler(s.cfg.Registry)
	mux.Handle("GET /metrics", metrics)
	mux.Handle("GET /metrics.json", metrics)
	// Profiling endpoints. Samples carry the job/tenant/app labels runJob
	// sets plus the scheduler's phase label, so a profile scraped
	// mid-run attributes CPU to individual jobs and phases.
	mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	return mux
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeSubmitError maps a Submit error to its status code.
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrMemPressure):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{"bad job spec: " + err.Error()})
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
			writeJSON(w, http.StatusOK, j.View())
		case <-r.Context().Done():
			// The client went away; the job keeps running.
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.View())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id"), nil); err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
		return
	}
	j, _ := s.Get(r.PathValue("id"))
	writeJSON(w, http.StatusOK, j.View())
}

// handleStream serves the job's record stream as NDJSON: first a replay of
// everything buffered so far, then live records until the job finishes or
// the client disconnects. Each line is one StreamRecord; a terminal record
// ("result", "error", "cancelled", "checkpointed", "rejected") is always
// the last line of a complete stream.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeRec := func(rec StreamRecord) bool {
		rec.Job = j.id
		if err := enc.Encode(rec); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	replay, live, cancel := j.hub.subscribe()
	defer cancel()
	for _, rec := range replay {
		if !writeRec(rec) {
			return
		}
	}
	for {
		select {
		case rec, ok := <-live:
			if !ok {
				return
			}
			if !writeRec(rec) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
