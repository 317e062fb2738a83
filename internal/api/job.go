package api

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// JobState is a job's lifecycle position. Terminal success is named
// Optimal to match the solver vocabulary the rest of the repo reports —
// a client polling a planning job sees the same word the batch CLI
// prints.
type JobState string

const (
	StateQueued  JobState = "Queued"
	StateRunning JobState = "Running"
	// StateOptimal is terminal success: the job ran to completion and
	// its result is attached.
	StateOptimal JobState = "Optimal"
	// StateFailed is terminal failure: the job ran and errored.
	StateFailed JobState = "Failed"
	// StateCanceled is terminal cancellation: the job's deadline expired
	// (possibly before it ever started) or the service shut down while
	// it was queued.
	StateCanceled JobState = "Canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateOptimal || s == StateFailed || s == StateCanceled
}

// JobSpec is the client-provided description of one job: what to solve,
// on which topology, under which deadline.
type JobSpec struct {
	// Type selects the work: "plan" (heuristic network planning),
	// "restore" (one restoration solve; requires CutFibers), "sweep"
	// (all single-fiber scenarios), or "drill" (a closed-loop chaos
	// drill on a fresh loopback testbed).
	Type string `json:"type"`
	// Network names the topology: "ring4", "ring6", "cernet",
	// "tbackbone".
	Network string `json:"network"`
	// Scale multiplies every IP demand (0 or 1: unscaled).
	Scale float64 `json:"scale,omitempty"`
	// Scheme selects the transponder catalog: "flexwan" (SVT, default),
	// "radwan", "100g".
	Scheme string `json:"scheme,omitempty"`
	// K is the candidate-path count (0: the planner default).
	K int `json:"k,omitempty"`
	// Seed drives the topology's demand randomization and, for drills,
	// every fault decision.
	Seed int64 `json:"seed,omitempty"`
	// Exact switches plan jobs to the exact MIP, searched serially on the
	// job's scheduler worker (per-job deadline recommended: the context is
	// wired into solver.Options.Context).
	Exact bool `json:"exact,omitempty"`
	// CutFibers are the fibers to cut (restore: required; drill: the
	// first entry overrides the default busiest-fiber choice).
	CutFibers []string `json:"cut_fibers,omitempty"`
	// DeadlineMs is the end-to-end budget from submission, queueing
	// included. 0 means no deadline.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// JobEvent is one entry in a job's progress stream.
type JobEvent struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	// Kind is "state" (State carries the transition) or "log" (Msg
	// carries solver/executor progress).
	Kind  string   `json:"kind"`
	State JobState `json:"state,omitempty"`
	Msg   string   `json:"msg,omitempty"`
}

// JobView is the JSON representation of a job returned by the API.
type JobView struct {
	ID          string          `json:"id"`
	Tenant      string          `json:"tenant"`
	Spec        JobSpec         `json:"spec"`
	State       JobState        `json:"state"`
	Error       string          `json:"error,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Events      int             `json:"events"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// Job is one submitted unit of work. All mutable state sits behind mu;
// every mutation appends a JobEvent and wakes the watchers, which is
// what the long-poll and SSE endpoints block on.
type Job struct {
	ID     string
	Tenant string
	Spec   JobSpec
	seq    int // admission order, set by the scheduler

	// ctx carries the per-job deadline into the executor (and from
	// there into solver.Options.Context); cancel releases its timer.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     JobState
	err       string
	result    json.RawMessage
	submitted time.Time
	started   time.Time
	finished  time.Time
	events    []JobEvent
	// change, made by the first watcher to ask, is closed and dropped
	// on the next mutation: watchers grab it and block until it closes.
	// A job nobody watches never allocates one.
	change chan struct{}
}

func newJob(id, tenant string, spec JobSpec, now time.Time) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	if spec.DeadlineMs > 0 {
		ctx, cancel = context.WithDeadline(ctx, now.Add(time.Duration(spec.DeadlineMs)*time.Millisecond))
	}
	j := &Job{
		ID: id, Tenant: tenant, Spec: spec,
		ctx: ctx, cancel: cancel,
		state: StateQueued, submitted: now,
		events: make([]JobEvent, 0, 3), // Queued, Running, terminal
	}
	j.appendEventLocked(JobEvent{Kind: "state", State: StateQueued, Time: now})
	return j
}

// Context is the job's deadline context — executors thread it into
// solver options and long-running loops.
func (j *Job) Context() context.Context { return j.ctx }

// appendEventLocked numbers and stores ev and wakes watchers. Callers
// either hold j.mu or (newJob only) have exclusive access.
func (j *Job) appendEventLocked(ev JobEvent) {
	ev.Seq = len(j.events) + 1
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	j.events = append(j.events, ev)
	if j.change != nil {
		close(j.change)
		j.change = nil
	}
}

// Logf appends a progress event visible on the events stream — the
// executor's narration channel.
func (j *Job) Logf(format string, args ...interface{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(JobEvent{Kind: "log", Msg: fmt.Sprintf(format, args...)})
}

func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	j.started = now
	j.appendEventLocked(JobEvent{Kind: "state", State: StateRunning, Time: now})
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state JobState, result json.RawMessage, errMsg string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = result
	j.err = errMsg
	j.finished = now
	j.appendEventLocked(JobEvent{Kind: "state", State: state, Msg: errMsg, Time: now})
}

// State returns the current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// View snapshots the job for JSON. withResult false omits the (possibly
// large) result payload — the list endpoint's shape.
func (j *Job) View(withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.ID, Tenant: j.Tenant, Spec: j.Spec,
		State: j.state, Error: j.err,
		SubmittedAt: j.submitted, Events: len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// watch returns the events from seq from (1-based) onward plus a channel
// that closes on the next mutation — the building block for long-poll
// and SSE streaming.
func (j *Job) watch(from int) ([]JobEvent, JobState, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []JobEvent
	if from < 1 {
		from = 1
	}
	if from <= len(j.events) {
		evs = append(evs, j.events[from-1:]...)
	}
	if j.change == nil {
		j.change = make(chan struct{})
	}
	return evs, j.state, j.change
}
