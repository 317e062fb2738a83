package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// gateExec is a stub executor whose jobs block until release is closed,
// recording execution order — the scheduler harness for the fairness,
// queue-bound, and shutdown tests.
type gateExec struct {
	mu      sync.Mutex
	order   []string // job IDs in execution-start order
	started map[string]chan struct{}
	release chan struct{}
}

func newGateExec() *gateExec {
	return &gateExec{
		started: make(map[string]chan struct{}),
		release: make(chan struct{}),
	}
}

func (g *gateExec) run(ctx context.Context, j *Job) (json.RawMessage, error) {
	g.mu.Lock()
	g.order = append(g.order, j.ID)
	if ch, ok := g.started[j.ID]; ok {
		close(ch)
	}
	g.mu.Unlock()
	select {
	case <-g.release:
		return json.RawMessage(`{"ok":true}`), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// expectStart registers a channel closed when the job starts executing.
func (g *gateExec) expectStart(id string) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch := make(chan struct{})
	g.started[id] = ch
	return ch
}

func (g *gateExec) execOrder() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		_, state, change := j.watch(1)
		if state == want {
			return
		}
		if state.Terminal() {
			t.Fatalf("job %s: state %s, want %s", j.ID, state, want)
		}
		select {
		case <-change:
		case <-deadline:
			t.Fatalf("job %s: timed out waiting for %s (at %s)", j.ID, want, j.State())
		}
	}
}

func waitTerminal(t *testing.T, j *Job) JobState {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		_, state, change := j.watch(1)
		if state.Terminal() {
			return state
		}
		select {
		case <-change:
		case <-deadline:
			t.Fatalf("job %s: timed out waiting for terminal state (at %s)", j.ID, j.State())
		}
	}
}

// TestSchedulerQueueFull: the admission queue is a hard and exact bound
// — with the one worker held, QueueDepth jobs wait and the next Submit
// refuses with ErrQueueFull and counts the rejection.
func TestSchedulerQueueFull(t *testing.T) {
	g := newGateExec()
	s := NewScheduler(SchedOptions{QueueDepth: 2, Workers: 1, Executor: g.run})
	started := make(chan struct{})
	g.mu.Lock()
	g.started["j-000001"] = started
	g.mu.Unlock()

	var accepted []*Job
	j1, err := s.Submit("a", JobSpec{})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	accepted = append(accepted, j1)
	<-started // worker occupied; everything else queues

	var full bool
	for i := 0; i < 20 && !full; i++ {
		j, err := s.Submit("a", JobSpec{})
		switch {
		case err == nil:
			accepted = append(accepted, j)
		case errors.Is(err, ErrQueueFull):
			full = true
		default:
			t.Fatalf("submit: %v", err)
		}
	}
	if !full {
		t.Fatalf("never hit ErrQueueFull after 20 submissions past a depth-2 queue")
	}
	// Depth 2 plus the running job: nothing waits outside the count.
	if len(accepted) != 3 {
		t.Fatalf("accepted %d jobs with queue depth 2 and one worker, want exactly 3", len(accepted))
	}
	if st := s.Stats(); st.Rejected != 1 || st.Queued != 2 || st.Running != 1 || st.MaxQueueDepth != 2 {
		t.Fatalf("stats rejected=%d queued=%d running=%d max_queue_depth=%d, want 1/2/1/2",
			st.Rejected, st.Queued, st.Running, st.MaxQueueDepth)
	}

	close(g.release)
	for _, j := range accepted {
		if got := waitTerminal(t, j); got != StateOptimal {
			t.Fatalf("job %s finished %s, want Optimal", j.ID, got)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSchedulerFairness: tenant B's two jobs must not wait behind tenant
// A's flood. With round-robin dequeue they land in the first six
// executions; FIFO would run them last.
func TestSchedulerFairness(t *testing.T) {
	g := newGateExec()
	s := NewScheduler(SchedOptions{QueueDepth: 64, Workers: 1, Executor: g.run})
	started := g.expectStart("j-000001")

	blocker, err := s.Submit("tenant-a", JobSpec{})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started // the single worker is now held

	var aJobs, bJobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit("tenant-a", JobSpec{})
		if err != nil {
			t.Fatalf("submit a#%d: %v", i, err)
		}
		aJobs = append(aJobs, j)
	}
	for i := 0; i < 2; i++ {
		j, err := s.Submit("tenant-b", JobSpec{})
		if err != nil {
			t.Fatalf("submit b#%d: %v", i, err)
		}
		bJobs = append(bJobs, j)
	}

	close(g.release)
	for _, j := range append(append([]*Job{blocker}, aJobs...), bJobs...) {
		if got := waitTerminal(t, j); got != StateOptimal {
			t.Fatalf("job %s finished %s, want Optimal", j.ID, got)
		}
	}

	pos := map[string]int{}
	for i, id := range g.execOrder() {
		pos[id] = i + 1
	}
	// 11 jobs total; under FIFO tenant B would execute 10th and 11th.
	// Round-robin interleaves them right after the running blocker, so
	// both land in the first six.
	for _, j := range bJobs {
		if pos[j.ID] > 6 {
			t.Fatalf("tenant-b job %s executed %dth of %d — starved behind tenant-a's flood (order %v)",
				j.ID, pos[j.ID], len(pos), g.execOrder())
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSchedulerDeadlineWhileQueued: a job whose deadline expires before
// a worker picks it up is reported Canceled — never run, never Optimal.
func TestSchedulerDeadlineWhileQueued(t *testing.T) {
	g := newGateExec()
	s := NewScheduler(SchedOptions{QueueDepth: 8, Workers: 1, Executor: g.run})
	started := g.expectStart("j-000001")
	blocker, err := s.Submit("a", JobSpec{})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	// A job ahead of it in the tenant's FIFO, so the deadline job is not
	// even next in line when the worker frees up.
	parked, err := s.Submit("a", JobSpec{})
	if err != nil {
		t.Fatalf("submit parked: %v", err)
	}
	doomed, err := s.Submit("a", JobSpec{DeadlineMs: 30})
	if err != nil {
		t.Fatalf("submit doomed: %v", err)
	}
	<-doomed.Context().Done() // deadline fires while queued
	close(g.release)

	if got := waitTerminal(t, doomed); got != StateCanceled {
		t.Fatalf("deadline-expired job finished %s, want Canceled", got)
	}
	v := doomed.View(true)
	if v.Error == "" {
		t.Fatalf("canceled job has no error message")
	}
	for _, id := range g.execOrder() {
		if id == doomed.ID {
			t.Fatalf("deadline-expired job %s was executed", id)
		}
	}
	for _, j := range []*Job{blocker, parked} {
		if got := waitTerminal(t, j); got != StateOptimal {
			t.Fatalf("job %s finished %s, want Optimal", j.ID, got)
		}
	}
	st := s.Stats()
	if st.Canceled != 1 || st.Optimal != 2 {
		t.Fatalf("stats optimal=%d canceled=%d, want 2/1", st.Optimal, st.Canceled)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSchedulerGracefulShutdown: in-flight jobs run to completion,
// queued jobs drain with an explicit Canceled status, and submission
// after shutdown refuses with ErrShuttingDown.
func TestSchedulerGracefulShutdown(t *testing.T) {
	g := newGateExec()
	s := NewScheduler(SchedOptions{QueueDepth: 16, Workers: 1, Executor: g.run})
	started := g.expectStart("j-000001")
	inflight, err := s.Submit("a", JobSpec{})
	if err != nil {
		t.Fatalf("submit inflight: %v", err)
	}
	<-started
	var queued []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit("b", JobSpec{})
		if err != nil {
			t.Fatalf("submit queued#%d: %v", i, err)
		}
		queued = append(queued, j)
	}

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()

	// Queued jobs drain Canceled without waiting for the in-flight job:
	// every one of them, since nothing sits between the queue and the
	// worker.
	for _, j := range queued {
		if got := waitTerminal(t, j); got != StateCanceled {
			t.Fatalf("queued job %s finished %s, want Canceled", j.ID, got)
		}
		if v := j.View(true); v.Error != "server shutting down before start" {
			t.Fatalf("drained job %s error = %q", j.ID, v.Error)
		}
	}
	if got := inflight.State(); got != StateRunning {
		t.Fatalf("in-flight job is %s while the queue drained, want Running", got)
	}

	close(g.release) // let the in-flight job finish
	if got := waitTerminal(t, inflight); got != StateOptimal {
		t.Fatalf("in-flight job finished %s, want Optimal — shutdown killed it", got)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := s.Submit("a", JobSpec{}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}
	for _, j := range append([]*Job{inflight}, queued...) {
		if !j.State().Terminal() {
			t.Fatalf("job %s left non-terminal after shutdown: %s", j.ID, j.State())
		}
	}
}

// TestSchedulerManyTenantsNoLoss: saturate with hundreds of fast jobs
// from several tenants; every accepted job must reach a terminal state
// (the zero-lost-jobs invariant the load generator also checks).
func TestSchedulerManyTenantsNoLoss(t *testing.T) {
	exec := func(ctx context.Context, j *Job) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}
	s := NewScheduler(SchedOptions{QueueDepth: 512, Workers: 4, Executor: exec})
	var jobs []*Job
	var mu sync.Mutex
	var wg sync.WaitGroup
	for tnum := 0; tnum < 4; tnum++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for {
					j, err := s.Submit(tenant, JobSpec{})
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("submit: %v", err)
						return
					}
					mu.Lock()
					jobs = append(jobs, j)
					mu.Unlock()
					break
				}
			}
		}(fmt.Sprintf("tenant-%d", tnum))
	}
	wg.Wait()
	for _, j := range jobs {
		if got := waitTerminal(t, j); got != StateOptimal {
			t.Fatalf("job %s finished %s, want Optimal", j.ID, got)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s.Stats()
	if st.Optimal != 400 {
		t.Fatalf("stats.Optimal = %d, want 400", st.Optimal)
	}
	for tnum := 0; tnum < 4; tnum++ {
		ts := st.PerTenant[fmt.Sprintf("tenant-%d", tnum)]
		if ts == nil || ts.Completed != 100 {
			t.Fatalf("tenant-%d stats = %+v, want 100 completed", tnum, ts)
		}
	}
}

// TestSchedulerPerTenantBounded: the per-tenant stats keep an entry only
// while the tenant has a job the scheduler still holds, so 10 000 tenants
// of one job each leave at most the retention window's worth of entries
// (plus the running jobs'), the global counters keep the totals, and a
// tenant that comes back after its entry went starts from zero.
func TestSchedulerPerTenantBounded(t *testing.T) {
	const depth, workers, tenants = 8, 2, 10000
	exec := func(ctx context.Context, j *Job) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}
	s := NewScheduler(SchedOptions{QueueDepth: depth, Workers: workers, Executor: exec})
	for i := 0; i < tenants; i++ {
		j, err := s.Submit(fmt.Sprintf("tenant-%d", i), JobSpec{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitTerminal(t, j)
		if i%1000 == 0 {
			if n := len(s.Stats().PerTenant); n > 4*depth+workers {
				t.Fatalf("after %d tenants: %d per-tenant entries, want ≤ %d", i+1, n, 4*depth+workers)
			}
		}
	}
	st := s.Stats()
	if n := len(st.PerTenant); n > 4*depth+workers {
		t.Fatalf("%d per-tenant entries after %d one-job tenants, want ≤ %d", n, tenants, 4*depth+workers)
	}
	if st.Submitted != tenants || st.Optimal != tenants {
		t.Fatalf("global counters submitted=%d optimal=%d, want %d each", st.Submitted, st.Optimal, tenants)
	}
	last := st.PerTenant[fmt.Sprintf("tenant-%d", tenants-1)]
	if last == nil || last.Submitted != 1 || last.Completed != 1 {
		t.Fatalf("newest tenant's stats = %+v, want 1 submitted, 1 completed", last)
	}
	if _, ok := st.PerTenant["tenant-0"]; ok {
		t.Fatal("tenant-0's entry outlived its only job")
	}
	j, err := s.Submit("tenant-0", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if ts := s.Stats().PerTenant["tenant-0"]; ts == nil || ts.Submitted != 1 || ts.Completed != 1 {
		t.Fatalf("returning tenant-0 stats = %+v, want a fresh 1 submitted, 1 completed", ts)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSchedulerExecutorPanic: a panicking executor fails its own job with
// the panic value, sends the stack to Logf, frees its worker and leaves
// the counters balanced — it does not strand the job Running.
func TestSchedulerExecutorPanic(t *testing.T) {
	exec := func(ctx context.Context, j *Job) (json.RawMessage, error) {
		if j.Spec.Type == "boom" {
			panic("kaboom")
		}
		return json.RawMessage(`{}`), nil
	}
	var mu sync.Mutex
	var logged []string
	logf := func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	s := NewScheduler(SchedOptions{QueueDepth: 4, Workers: 1, Executor: exec, Logf: logf})
	bad, err := s.Submit("a", JobSpec{Type: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, bad); got != StateFailed {
		t.Fatalf("panicking job finished %s, want Failed", got)
	}
	if v := bad.View(true); v.Error != "executor panic: kaboom" {
		t.Fatalf("panicking job error = %q", v.Error)
	}
	// The one worker slot came back: the next job runs.
	good, err := s.Submit("a", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, good); got != StateOptimal {
		t.Fatalf("job after the panic finished %s, want Optimal", got)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := s.Stats(); st.Running != 0 || st.Failed != 1 || st.Optimal != 1 {
		t.Fatalf("stats running=%d failed=%d optimal=%d, want 0/1/1", st.Running, st.Failed, st.Optimal)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "kaboom") || !strings.Contains(logged[0], "goroutine") {
		t.Fatalf("Logf got %q, want one line with the panic value and the stack", logged)
	}
}

// TestSchedulerConcurrencyBound: never more than Workers jobs run at
// once, and a burst does reach the bound.
func TestSchedulerConcurrencyBound(t *testing.T) {
	const workers, jobs = 3, 60
	var mu sync.Mutex
	running, peak := 0, 0
	exec := func(ctx context.Context, j *Job) (json.RawMessage, error) {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
		return nil, nil
	}
	s := NewScheduler(SchedOptions{QueueDepth: jobs, Workers: workers, Executor: exec})
	var all []*Job
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(fmt.Sprintf("tenant-%d", i%4), JobSpec{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		all = append(all, j)
	}
	if st := s.Stats(); st.Running > workers {
		t.Fatalf("stats.Running = %d with %d workers", st.Running, workers)
	}
	for _, j := range all {
		waitTerminal(t, j)
	}
	if peak != workers {
		t.Fatalf("peak concurrency %d, want exactly %d", peak, workers)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := s.Stats(); st.Running != 0 || st.Optimal != jobs {
		t.Fatalf("stats running=%d optimal=%d after the burst", st.Running, st.Optimal)
	}
}

// TestSchedulerRetention: finished jobs live in a window of 4 × QueueDepth.
// Past it the oldest finished job is forgotten by ID — and only by ID: a
// holder of the *Job keeps the full terminal view — while a job that has
// not finished is never forgotten, however old: only finished IDs enter
// the window. (A running job is the case that can outlive the window; a
// queued one has at most QueueDepth jobs ahead of it.)
func TestSchedulerRetention(t *testing.T) {
	const depth, extra = 4, 5
	const window = 4 * depth
	g := newGateExec()
	exec := func(ctx context.Context, j *Job) (json.RawMessage, error) {
		if j.Spec.Type == "block" {
			return g.run(ctx, j)
		}
		return json.RawMessage(`{"n":` + j.ID[2:] + `}`), nil
	}
	s := NewScheduler(SchedOptions{QueueDepth: depth, Workers: 2, Executor: exec})

	// The oldest job of all stays running throughout, on one of the two
	// workers; the other serves the flood.
	started := g.expectStart("j-000001")
	running, err := s.Submit("a", JobSpec{Type: "block"})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var done []*Job
	for i := 0; i < window+extra; i++ {
		j, err := s.Submit("a", JobSpec{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitTerminal(t, j)
		done = append(done, j)
	}
	for i, j := range done {
		_, found := s.Job(j.ID)
		if want := i >= extra; found != want {
			t.Fatalf("finished job %d of %d (%s): found=%v, want %v", i+1, len(done), j.ID, found, want)
		}
		// Evicted or not, the *Job a watcher grabbed earlier is whole.
		if v := j.View(true); v.State != StateOptimal || string(v.Result) != `{"n":`+j.ID[2:]+`}` || v.FinishedAt == nil {
			t.Fatalf("held job %s lost its terminal view: %+v", j.ID, v)
		}
	}
	if got, ok := s.Job(running.ID); !ok || got != running {
		t.Fatalf("running job %s was evicted", running.ID)
	}
	list := s.Jobs()
	if len(list) != window+1 {
		t.Fatalf("Jobs() lists %d, want the %d-job window plus the running one", len(list), window)
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].seq >= list[i].seq {
			t.Fatalf("Jobs() out of admission order: %s before %s", list[i-1].ID, list[i].ID)
		}
	}
	if list[0] != running {
		t.Fatalf("Jobs() starts with %s, want the oldest (running) job", list[0].ID)
	}
	st := s.Stats()
	if st.JobsRetained != window || st.JobsEvicted != extra {
		t.Fatalf("stats jobs_retained=%d jobs_evicted=%d, want %d/%d", st.JobsRetained, st.JobsEvicted, window, extra)
	}
	// The window is a fixed ring: no bookkeeping grows with the job count.
	s.mu.Lock()
	ring, index := len(s.finished), len(s.jobs)
	s.mu.Unlock()
	if ring != window || index != window+1 {
		t.Fatalf("ring holds %d IDs, index %d jobs; want %d and %d", ring, index, window, window+1)
	}

	close(g.release)
	waitTerminal(t, running)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// BenchmarkSchedulerNoop is the scheduler's own cost per job: Submit to
// terminal with a no-op executor, the waiter blocked on the job's change
// channel the way the long-poll handler is. (A waiter that instead polls
// with time.Sleep(1µs) measures the runtime's idle search, not this: the
// job is done before the microsecond is.)
func BenchmarkSchedulerNoop(b *testing.B) {
	s := NewScheduler(SchedOptions{Executor: func(context.Context, *Job) (json.RawMessage, error) { return nil, nil }})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit("bench", JobSpec{})
		if err != nil {
			b.Fatal(err)
		}
		for _, state, change := j.watch(1); !state.Terminal(); _, state, change = j.watch(1) {
			<-change
		}
	}
	b.StopTimer()
	if err := s.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
}
