package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/opt"
)

// Options configures a Server. The zero value is usable: in-memory
// store, no solve cache, GOMAXPROCS workers, a 1024-deep queue.
type Options struct {
	// Store persists jobs; nil means a fresh MemStore.
	Store JobStore
	// Cache is the shared solve cache every worker solves through; nil
	// disables memoization (each solve runs fresh).
	Cache *opt.SolveCache
	// Workers bounds concurrent solves; 0 means GOMAXPROCS (resolved by
	// the scheduler at Start). A "mode":"async" solve shards across at
	// most GOMAXPROCS/Workers goroutines (at least 1), so concurrent
	// solves never oversubscribe the CPUs; deterministic solves are
	// single-threaded.
	Workers int
	// QueueDepth bounds jobs waiting beyond the ones being solved;
	// submissions past the bound are rejected with 429, not blocked.
	// 0 means 1024.
	QueueDepth int
}

// Server is the HTTP/JSON job API over the exact solver. Construct with
// New, launch the worker pool with Start, serve Handler.
type Server struct {
	store   JobStore
	cache   *opt.SolveCache
	sched   *Scheduler
	metrics *Metrics
	workers int
	mux     *http.ServeMux

	mu     sync.Mutex
	nextID int64 // mpp:guardedby mu
}

// New builds a server (routes wired, workers not yet started).
func New(o Options) *Server {
	if o.Store == nil {
		o.Store = NewMemStore()
	}
	m := NewMetrics()
	s := &Server{
		store:   o.Store,
		cache:   o.Cache,
		sched:   NewScheduler(o.Store, o.Cache, m, o.QueueDepth),
		metrics: m,
		workers: o.Workers,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Start launches the worker pool bound to ctx (cancel it to stop all
// solves); Wait joins the workers afterwards.
func (s *Server) Start(ctx context.Context) {
	s.sched.Start(ctx, s.workers)
}

// Wait blocks until every worker has exited.
func (s *Server) Wait() { s.sched.Wait() }

// Handler returns the API's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// newID allocates the next job ID.
func (s *Server) newID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("j%06d", s.nextID)
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeErr writes a JSON error envelope.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit validates the request, stores the job and enqueues it.
// Validation failures are 400; a full queue is 429. Accepted jobs get
// 202 with the initial view — bracket already populated from the root
// heuristic bound.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	in, cfg, timeout, err := req.Build()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := &Job{
		ID:        s.newID(),
		Req:       req,
		State:     StateQueued,
		Submitted: time.Now(),
		DAGName:   in.Graph.Name(),
		N:         in.N(),
		K:         in.K,
		R:         in.R,
		G:         in.G,
		RootLower: opt.RootLowerBound(in, cfg.Heuristic),
	}
	if err := s.store.Put(j); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := s.sched.Submit(j.ID, in, cfg, timeout); err != nil {
		if errors.Is(err, ErrQueueFull) {
			writeErr(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, ViewOf(j))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs, err := s.store.List()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	views := make([]View, len(jobs))
	for i := range jobs {
		views[i] = ViewOf(&jobs[i])
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		s.storeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ViewOf(&j))
}

// handleResult serves the full canonical Result document of a finished
// job. A job still queued or running is 409 (poll the status endpoint);
// a failed job has no Result and reports its error instead.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		s.storeErr(w, err)
		return
	}
	if !j.State.Terminal() {
		writeErr(w, http.StatusConflict, "job %s is %s; poll GET /v1/jobs/%s until terminal",
			j.ID, j.State, j.ID)
		return
	}
	if j.Result == nil {
		writeErr(w, http.StatusConflict, "job %s %s without a result: %s", j.ID, j.State, j.Err)
		return
	}
	body, err := EncodeResult(j.Result)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.sched.Cancel(r.PathValue("id"))
	if err != nil {
		s.storeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ViewOf(&j))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := Gauges{QueueDepth: s.sched.QueueDepth(), Running: s.sched.Running()}
	if s.cache != nil {
		g.Cache = s.cache.Stats()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.metrics.WriteTo(w, g)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	_, _ = fmt.Fprintln(w, "ok")
}

// storeErr maps store errors to HTTP codes.
func (s *Server) storeErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrNotFound) {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeErr(w, http.StatusInternalServerError, "%v", err)
}
