package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"flexwan/internal/controller"
	"flexwan/internal/devmodel"
)

// Options configures the service.
type Options struct {
	// QueueDepth bounds the admission queue (default 256).
	QueueDepth int
	// Workers bounds concurrently running jobs (default GOMAXPROCS).
	Workers int
	// Controller, when non-nil, is the live fleet the /v1/devices
	// endpoints front (typically a standing chaos testbed's controller).
	// Nil leaves the device endpoints answering 503.
	Controller *controller.Controller
	// Store is the versioned config store behind /v1/configs. Nil gets a
	// fresh in-memory store; any controller.ConfigStore implementation
	// (a durable one, say) drops in.
	Store controller.ConfigStore
	// Logf receives service log lines (nil silences them).
	Logf func(format string, args ...interface{})

	// executor overrides the real job executor — test seam only.
	executor Executor
}

// Server is the controller service: job scheduler, plan cache, config
// store, and fleet view behind one HTTP handler.
type Server struct {
	opts  Options
	sched *Scheduler
	plans *planCache
	store controller.ConfigStore
	ctrl  *controller.Controller
	mux   *http.ServeMux

	// drillMu serializes drill jobs — each stands up a full loopback
	// device fleet, which is too heavy to overlap.
	drillMu sync.Mutex
}

// New builds and starts a Server. Shutdown stops it.
func New(opts Options) *Server {
	s := &Server{
		opts:  opts,
		plans: newPlanCache(),
		store: opts.Store,
		ctrl:  opts.Controller,
	}
	if s.store == nil {
		s.store = controller.NewMemStore()
	}
	exec := opts.executor
	if exec == nil {
		exec = s.executeJob
	}
	s.sched = NewScheduler(SchedOptions{
		QueueDepth: opts.QueueDepth,
		Workers:    opts.Workers,
		Executor:   exec,
		Logf:       opts.Logf,
	})
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Scheduler exposes the job scheduler (the load generator and tests
// submit through it directly).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Store exposes the config store.
func (s *Server) Store() controller.ConfigStore { return s.store }

// Handler returns the HTTP handler serving the v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the scheduler gracefully (see Scheduler.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.sched.Shutdown(ctx)
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/devices", s.handleListDevices)
	s.mux.HandleFunc("POST /v1/devices", s.handleRegisterDevice)
	s.mux.HandleFunc("GET /v1/configs", s.handleListConfigs)
	s.mux.HandleFunc("GET /v1/configs/{n}", s.handleGetConfig)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

// writeJSON answers compact JSON; clients that want it readable pipe it
// through jq (flexwanctl indents what it prints).
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes caps a request body; a JobSpec or a device descriptor is
// a few hundred bytes.
const maxBodyBytes = 64 << 10

// readJSON decodes the request body, at most maxBodyBytes of it, into v.
// The body must be exactly one JSON object: a key v has no field for is an
// error, not a silent no-op — a typo such as "cut_fiber" must not run as
// if the key were absent — and so are a body that is not an object (null
// decodes into nothing) and anything but whitespace after the object. On
// failure it has already answered — 413 for an oversized body, 400
// (naming the unknown key, if that was it) for anything else — and
// returns false.
func readJSON(w http.ResponseWriter, r *http.Request, what string, v interface{}) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = decodeObject(bytes.Trim(body, " \t\r\n"), v)
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, "bad %s: %v", what, err)
	return false
}

// decodeObject decodes body, which must be one JSON object and nothing
// else, into v, refusing keys v has no field for.
func decodeObject(body []byte, v interface{}) error {
	if len(body) == 0 || body[0] != '{' {
		return errors.New("body is not a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.InputOffset() != int64(len(body)) {
		return errors.New("data after the JSON object")
	}
	return nil
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// tenant extracts the caller's tenant from the X-Tenant header
// ("default" when absent — single-tenant callers need no headers).
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !readJSON(w, r, "job spec", &spec) {
		return
	}
	j, err := s.sched.Submit(tenant(r), spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.View(false))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View(false))
	}
	writeJSON(w, http.StatusOK, views)
}

// lookupJob resolves the {id} path value, answering 404 itself when the
// scheduler does not (or no longer does) know the job.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.sched.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q (unknown, or finished and past the retention window)", id)
	}
	return j, ok
}

// handleGetJob returns one job. ?wait=<duration> long-polls: the reply
// is delayed until the job is terminal or the wait expires, whichever
// comes first — one request replaces a polling loop.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait %q: %v", waitStr, err)
			return
		}
		deadline := time.NewTimer(wait)
		defer deadline.Stop()
	poll:
		for {
			_, state, change := j.watch(1)
			if state.Terminal() {
				break
			}
			select {
			case <-change:
			case <-deadline.C:
				break poll
			case <-r.Context().Done():
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, j.View(true))
}

// handleJobEvents streams a job's event log from ?from=N (1-based,
// default 1). With Accept: text/event-stream the reply is SSE — one
// `event: <kind>` + JSON data line per JobEvent, streamed until the job
// is terminal. Otherwise it long-polls once: if no events at or past
// `from` exist yet, the reply waits (up to ?wait, default 30s) for the
// next one, then returns a JSON array.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	from := 1
	if f := r.URL.Query().Get("from"); f != "" {
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad from %q", f)
			return
		}
		from = n
	}
	if r.Header.Get("Accept") == "text/event-stream" {
		s.streamEvents(w, r, j, from)
		return
	}
	wait := 30 * time.Second
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait %q: %v", waitStr, err)
			return
		}
		wait = d
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		evs, state, change := j.watch(from)
		if len(evs) > 0 || state.Terminal() {
			writeJSON(w, http.StatusOK, evs)
			return
		}
		select {
		case <-change:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, []JobEvent{})
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, j *Job, from int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		evs, state, change := j.watch(from)
		for _, ev := range evs {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Kind, ev.Seq, data)
			from = ev.Seq + 1
		}
		fl.Flush()
		if state.Terminal() {
			return
		}
		select {
		case <-change:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleListDevices(w http.ResponseWriter, r *http.Request) {
	if s.ctrl == nil {
		writeError(w, http.StatusServiceUnavailable, "no device fleet attached (start flexwand with -fleet)")
		return
	}
	writeJSON(w, http.StatusOK, s.ctrl.DevMgr().Health())
}

func (s *Server) handleRegisterDevice(w http.ResponseWriter, r *http.Request) {
	if s.ctrl == nil {
		writeError(w, http.StatusServiceUnavailable, "no device fleet attached (start flexwand with -fleet)")
		return
	}
	var desc devmodel.Descriptor
	if !readJSON(w, r, "descriptor", &desc) {
		return
	}
	if err := s.ctrl.DevMgr().Register(desc); err != nil {
		writeError(w, http.StatusBadRequest, "register %s: %v", desc.ID, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": desc.ID, "status": "registered"})
}

// handleListConfigs returns the audit history, newest-last. ?limit=N
// caps it to the newest N versions. Snapshots are omitted from the list
// view (fetch one version for its full snapshot).
func (s *Server) handleListConfigs(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", l)
			return
		}
		limit = n
	}
	versions := s.store.List(limit)
	for i := range versions {
		versions[i].Snapshot = nil
	}
	writeJSON(w, http.StatusOK, versions)
}

func (s *Server) handleGetConfig(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad version %q", r.PathValue("n"))
		return
	}
	v, ok := s.store.Version(n)
	if !ok {
		writeError(w, http.StatusNotFound, "no config version %d (store has %d)", n, s.store.Len())
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	st.PlanCache = s.plans.snapshot()
	writeJSON(w, http.StatusOK, st)
}
