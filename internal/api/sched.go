package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"flexwan/internal/parallel"
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull: the fixed admission queue is at capacity → 429.
	ErrQueueFull = errors.New("api: admission queue full")
	// ErrShuttingDown: the scheduler is draining → 503.
	ErrShuttingDown = errors.New("api: scheduler shutting down")
)

// Executor runs one job and returns its result payload. The contract:
// observe ctx (it carries the job's deadline) and return ctx.Err() when
// aborted by it — the scheduler maps context errors to Canceled, other
// errors to Failed, nil to Optimal.
type Executor func(ctx context.Context, job *Job) (json.RawMessage, error)

// SchedOptions configures the scheduler.
type SchedOptions struct {
	// QueueDepth bounds the jobs waiting for a worker, across all
	// tenants (default 256). The bound is exact: with every worker busy,
	// QueueDepth jobs wait and the next submission gets ErrQueueFull —
	// the explicit 429 that tells a load generator to back off. It also
	// sizes the retention window: the 4 × QueueDepth most recently
	// finished jobs stay addressable by ID, older ones are forgotten.
	QueueDepth int
	// Workers bounds concurrently running jobs (default GOMAXPROCS),
	// one budget across every tenant, so solver work is CPU-bounded no
	// matter how many tenants are pushing.
	Workers int
	// Executor runs each job.
	Executor Executor
	// Logf receives scheduler log lines (nil silences them).
	Logf func(format string, args ...interface{})
}

// TenantStats counts one tenant's traffic.
type TenantStats struct {
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`

	jobs int // the tenant's queued, running and retained jobs
}

// SchedStats is the /v1/stats payload. PerTenant holds an entry only for a
// tenant with a queued, running or retained job: once its last retained
// job is forgotten the entry goes too (the global counters keep the
// totals), so a tenant that returns later starts from zero.
type SchedStats struct {
	Workers       int                     `json:"workers"`
	QueueDepth    int                     `json:"queue_depth"`
	Queued        int                     `json:"queued"`
	Running       int                     `json:"running"`
	Submitted     int                     `json:"submitted"`
	Rejected      int                     `json:"rejected"`
	Optimal       int                     `json:"optimal"`
	Failed        int                     `json:"failed"`
	Canceled      int                     `json:"canceled"`
	MaxQueueDepth int                     `json:"max_queue_depth"`
	JobsRetained  int                     `json:"jobs_retained"`
	JobsEvicted   int                     `json:"jobs_evicted"`
	PerTenant     map[string]*TenantStats `json:"per_tenant"`
	// PlanCache is the server's plan cache; zero from a bare Scheduler.
	PlanCache PlanCacheStats `json:"plan_cache"`
}

// Scheduler is the bounded multi-tenant job scheduler: a fixed admission
// queue split per tenant, a round-robin fair dequeue over tenants with
// waiting work, and at most Workers worker goroutines. Submit starts a
// worker when one is free; a worker runs its job, then keeps pulling the
// next one through the fair dequeue and exits when the queue is empty —
// an idle scheduler owns no goroutine. Fairness is at dequeue: a tenant
// that floods the queue only ever gets one job picked per rotation, so a
// second tenant's first job never waits behind the flood.
type Scheduler struct {
	opts SchedOptions

	mu     sync.Mutex
	queues map[string][]*Job // per-tenant FIFO of queued jobs
	ring   []string          // tenants with non-empty queues, rotation order
	next   int               // ring position of the next dequeue
	queued int
	jobs   map[string]*Job // queued, running and retained finished jobs
	// finished is the retention window: a ring of 4 × QueueDepth
	// finished job IDs, finished[oldest] the next to be forgotten.
	finished []string
	oldest   int
	nextID   int

	draining bool
	idle     chan struct{} // closed once draining and the last worker left
	// stats.Running doubles as the live-worker count: every worker holds
	// exactly one dequeued, unfinished job.
	stats SchedStats
}

// NewScheduler builds a scheduler; its first worker starts with the
// first Submit.
func NewScheduler(opts SchedOptions) *Scheduler {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 256
	}
	if opts.Executor == nil {
		panic("api: NewScheduler without Executor")
	}
	s := &Scheduler{
		opts:   opts,
		queues: make(map[string][]*Job),
		jobs:   make(map[string]*Job),
		idle:   make(chan struct{}),
	}
	s.stats.Workers = parallel.Workers(opts.Workers)
	s.stats.QueueDepth = opts.QueueDepth
	s.stats.PerTenant = make(map[string]*TenantStats)
	return s
}

func (s *Scheduler) logf(format string, args ...interface{}) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func (s *Scheduler) tenantStats(tenant string) *TenantStats {
	ts := s.stats.PerTenant[tenant]
	if ts == nil {
		ts = &TenantStats{}
		s.stats.PerTenant[tenant] = ts
	}
	return ts
}

// Submit admits one job for tenant, or refuses with ErrQueueFull /
// ErrShuttingDown. The job's deadline clock starts now — queueing time
// counts against it.
func (s *Scheduler) Submit(tenant string, spec JobSpec) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrShuttingDown
	}
	// A worker only exits on an empty queue, so a free worker means
	// nothing is waiting: the job goes straight to a new worker.
	free := s.stats.Running < s.stats.Workers
	if !free && s.queued >= s.opts.QueueDepth {
		s.stats.Rejected++
		return nil, ErrQueueFull
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j-%06d", s.nextID), tenant, spec, time.Now())
	j.seq = s.nextID
	s.jobs[j.ID] = j
	s.stats.Submitted++
	ts := s.tenantStats(tenant)
	ts.Submitted++
	ts.jobs++
	if free {
		s.stats.Running++
		go s.work(j)
		return j, nil
	}
	if len(s.queues[tenant]) == 0 {
		s.ring = append(s.ring, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], j)
	s.queued++
	if s.queued > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = s.queued
	}
	return j, nil
}

// Job looks a job up by ID: queued and running jobs always, finished
// ones while they are inside the retention window.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job Job would find, in admission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Queued = s.queued
	st.JobsRetained = len(s.finished)
	st.PerTenant = make(map[string]*TenantStats, len(s.stats.PerTenant))
	for t, ts := range s.stats.PerTenant {
		c := *ts
		st.PerTenant[t] = &c
	}
	return st
}

// dequeueLocked takes the next job in tenant rotation — one job from the
// ring tenant at next, then advance — or returns nil on an empty queue.
func (s *Scheduler) dequeueLocked() *Job {
	if s.queued == 0 {
		return nil
	}
	if s.next >= len(s.ring) {
		s.next = 0
	}
	tenant := s.ring[s.next]
	q := s.queues[tenant]
	j := q[0]
	s.queues[tenant] = q[1:]
	s.queued--
	if len(s.queues[tenant]) == 0 {
		delete(s.queues, tenant)
		s.ring = append(s.ring[:s.next], s.ring[s.next+1:]...)
		// next now points at the following tenant already.
	} else {
		s.next++
	}
	if len(s.ring) > 0 {
		s.next %= len(s.ring)
	} else {
		s.next = 0
	}
	return j
}

// work is one worker's life: run the job it was started with, then keep
// taking the next one through the fair dequeue; exit on an empty queue.
// Workers never outnumber SchedOptions.Workers — that is the concurrency
// bound, and the queue fills (up to QueueDepth) behind it.
func (s *Scheduler) work(j *Job) {
	for j != nil {
		state, result, errMsg := s.execute(j)
		s.mu.Lock()
		s.finishLocked(j, state, result, errMsg)
		if j = s.dequeueLocked(); j == nil {
			s.stats.Running--
			if s.draining && s.stats.Running == 0 {
				close(s.idle)
			}
		}
		s.mu.Unlock()
	}
}

// execute runs one job on the calling worker and reports how it ended:
// nil error is Optimal, a context error Canceled, anything else Failed.
// A job whose deadline already expired while queued is Canceled without
// running — never a stale Optimal. A panicking executor fails its own
// job and costs the worker nothing.
func (s *Scheduler) execute(j *Job) (state JobState, result json.RawMessage, errMsg string) {
	defer j.cancel()
	if err := j.ctx.Err(); err != nil {
		return StateCanceled, nil, "deadline expired while queued: " + err.Error()
	}
	defer func() {
		if r := recover(); r != nil {
			s.logf("job %s: executor panic: %v\n%s", j.ID, r, debug.Stack())
			state, result, errMsg = StateFailed, nil, fmt.Sprintf("executor panic: %v", r)
		}
	}()
	j.setRunning(time.Now())
	result, err := s.opts.Executor(j.ctx, j)
	switch {
	case err == nil:
		return StateOptimal, result, ""
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return StateCanceled, result, err.Error()
	default:
		return StateFailed, result, err.Error()
	}
}

// finishLocked makes the job terminal, counts it — under the one lock,
// so whoever sees the terminal state also sees it counted — and moves it
// into the retention window, forgetting the oldest finished job once the
// window is full — and its tenant's stats entry with it when that was the
// tenant's last job. Whoever still holds that *Job keeps a complete view;
// only the lookup by ID answers "no such job".
func (s *Scheduler) finishLocked(j *Job, state JobState, result json.RawMessage, errMsg string) {
	j.finish(state, result, errMsg, time.Now())
	switch state {
	case StateOptimal:
		s.stats.Optimal++
	case StateFailed:
		s.stats.Failed++
	case StateCanceled:
		s.stats.Canceled++
	}
	s.tenantStats(j.Tenant).Completed++
	if len(s.finished) < 4*s.opts.QueueDepth {
		s.finished = append(s.finished, j.ID)
		return
	}
	old := s.jobs[s.finished[s.oldest]]
	delete(s.jobs, old.ID)
	ts := s.stats.PerTenant[old.Tenant]
	if ts.jobs--; ts.jobs == 0 {
		delete(s.stats.PerTenant, old.Tenant)
	}
	s.finished[s.oldest] = j.ID
	s.oldest = (s.oldest + 1) % len(s.finished)
	s.stats.JobsEvicted++
}

// Shutdown drains gracefully: admission stops (ErrShuttingDown), every
// still-queued job is finished Canceled with an explicit reason, and
// in-flight jobs run to completion. If ctx expires first, in-flight job
// contexts are canceled and Shutdown returns ctx.Err() once the workers
// have finished them Canceled through the executor contract.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, q := range s.queues {
			for _, j := range q {
				j.cancel()
				s.finishLocked(j, StateCanceled, nil, "server shutting down before start")
			}
		}
		s.queues = make(map[string][]*Job)
		s.ring = nil
		s.queued = 0
		if s.stats.Running == 0 {
			close(s.idle)
		}
	}
	s.mu.Unlock()

	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		s.cancelRunning()
		<-s.idle
		return ctx.Err()
	}
}

// cancelRunning force-cancels every non-terminal job's context.
func (s *Scheduler) cancelRunning() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if !j.State().Terminal() {
			j.cancel()
		}
	}
}
