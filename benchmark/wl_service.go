package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flexwan/internal/api"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// One service op is one job over real HTTP against api.New behind a
// net/http.Server on loopback, wired as cmd/flexwand wires it: POST
// /v1/jobs, then GET /v1/jobs/{id}?wait= until terminal.
//
// The loop is open: seeded Poisson arrivals at serviceRate jobs/s, which
// keeps the nproc keep-alive connections about a fifth busy (a hot-path
// job holds one for ~1.5 ms), timed from each job's due time. That is
// the point of not reusing eval.RunServiceLoad: its 64 in-flight clients
// mostly measure their own queue (64 ÷ 650 jobs/s ≈ 98 ms by Little's
// law, against a 0.8 ms job).
//
// 95% of jobs are restore on one hot plan-cache key (CERNET, one seed,
// fibers rotating, four tenants); 5% are a heuristic plan on a T-backbone
// seed never seen before, always a plan-cache miss. So the median is the
// hot path and the mean and tail carry the miss path.
const (
	serviceRate      = 250.0
	serviceMissShare = 0.05
	serviceTenants   = 4
	// serviceLimit is the latency limit: a job slower than this, refused,
	// lost or not terminal counts as failed. It is 300 medians wide
	// because it has to tell a backlog, where latency grows by seconds,
	// from this class of host freezing for 60–130 ms about once in four
	// runs, which at 250 jobs/s puts a dozen jobs over any tighter limit.
	serviceLimit = 500 * time.Millisecond
	serviceWait  = "10s"
)

var serviceLayer = []metricDef{
	{Name: "api.submit_ms_p50", Unit: "ms", Better: lower},
	{Name: "api.queue_wait_ms_p50", Unit: "ms", Better: lower},
	{Name: "api.queue_wait_ms_p90", Unit: "ms", Better: lower},
	{Name: "api.exec_ms_p50", Unit: "ms", Better: lower},
	{Name: "api.exec_plan_ms_p50", Unit: "ms", Better: lower},
	{Name: "api.notify_ms_p50", Unit: "ms", Better: lower},
	{Name: "api.stages_share_of_op", Unit: "share", Better: higher},
	{Name: "api.sched_noop_us_p50", Unit: "us", Better: lower},
	{Name: "api.render_us_p50", Unit: "us", Better: lower},
	{Name: "api.bytes_per_job", Unit: "B", Better: lower},
	{Name: "api.plancache_miss_share", Unit: "share", Better: lower},
	{Name: "api.rejected_429", Unit: "count", Better: lower},
	{Name: "api.max_queue_depth", Unit: "count", Better: lower},
	{Name: "gen.offered_per_s", Unit: "1/s", Better: higher},
	{Name: "gen.late_ms_p90", Unit: "ms", Better: lower},
	{Name: "gen.backlog_end", Unit: "count", Better: lower},
}

// jobPlan is one scheduled job: its spec, tenant and due time.
type jobPlan struct {
	spec   api.JobSpec
	tenant string
	fiber  int // index into service.fibers; -1 for a plan job
	due    time.Duration
}

// jobRecord is what the client measured and read for one job.
type jobRecord struct {
	timing
	sentAt   time.Time // wall clock at send, comparable with the view's stamps
	bytes    int
	view     api.JobView
	seenAt   time.Time // when the terminal view arrived
	failure  string
	wrong    bool
	rejected bool
}

type service struct {
	srv    *api.Server
	hs     *http.Server
	base   string
	client *http.Client

	hotSeed  int64
	fibers   []string
	expected [][]byte // compact restore payload per fiber, from a direct restore.Solve
	jobs     []jobPlan
	records  []jobRecord
	horizon  time.Duration
}

func (w *service) name() string { return "service" }

func (w *service) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx) // best effort: the process is about to exit or rebuild
	_ = w.hs.Shutdown(ctx)
	w.client.CloseIdleConnections()
	w.hs = nil
}

// setup starts the server, computes the batch-equivalent payload of every
// hot-key job, builds the arrival schedule and warms the hot plan-cache
// key with one job.
func (w *service) setup(c *runCtx) error {
	w.close()
	if err := checkWorkers("client connections", c.nproc); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(c.seed*7919 + 5))
	w.hotSeed = rng.Int63n(1 << 30)

	w.srv = api.New(api.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() { _ = w.hs.Serve(ln) }() // returns ErrServerClosed on Shutdown
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: c.nproc, MaxIdleConnsPerHost: c.nproc,
	}}

	// What every hot-key job must return, byte for byte: the plan cache's
	// base plan and a direct restore.Solve per fiber.
	sp := c.tr.start("workload.generate", -1, -1, false)
	n := workload.Cernet(w.hotSeed)
	c.tr.end(sp)
	grid := spectrum.DefaultGrid()
	base, err := plan.Solve(plan.Problem{Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: grid})
	if err != nil {
		return err
	}
	w.fibers, w.expected = nil, nil
	for i, f := range n.Optical.Fibers() {
		res, err := restore.Solve(restore.Problem{
			Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: grid,
			Base: base, Scenario: api.RestoreScenario([]string{f.ID}),
		})
		if err != nil {
			return err
		}
		payload, err := api.RestoreResultJSON(res)
		if err != nil {
			return err
		}
		w.fibers = append(w.fibers, f.ID)
		w.expected = append(w.expected, payload)
		sum := sha256.Sum256(payload)
		if m := c.golden.check(w.name(), i, fmt.Sprintf("%s %x", f.ID, sum[:8])); m != "" {
			return fmt.Errorf("batch restore payload: %s", m)
		}
	}

	w.horizon = time.Duration(c.seconds * float64(time.Second))
	due := poissonSchedule(rng.Int63(), serviceRate, w.horizon)
	w.jobs = make([]jobPlan, len(due))
	for i, d := range due {
		j := jobPlan{due: d, tenant: fmt.Sprintf("tenant-%d", i%serviceTenants), fiber: -1}
		if rng.Float64() < serviceMissShare {
			j.spec = api.JobSpec{Type: "plan", Network: "tbackbone", Seed: 1<<30 + int64(i)}
		} else {
			j.fiber = i % len(w.fibers)
			j.spec = api.JobSpec{Type: "restore", Network: "cernet", Seed: w.hotSeed, CutFibers: []string{w.fibers[j.fiber]}}
		}
		w.jobs[i] = j
	}

	warm := w.do(c, jobPlan{spec: api.JobSpec{Type: "restore", Network: "cernet", Seed: w.hotSeed, CutFibers: w.fibers[:1]}, tenant: "warm-up", fiber: 0}, time.Now(), -1)
	if warm.failure != "" {
		return fmt.Errorf("warm-up job: %s", warm.failure)
	}
	return nil
}

// run plays the schedule: nproc clients take jobs in due order, wait for
// each due time and carry the job to its terminal state.
func (w *service) run(c *runCtx) error {
	w.records = make([]jobRecord, len(w.jobs))
	var next, completed atomic.Int64
	var clients, marker sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < c.nproc; cl++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.jobs) {
					return
				}
				if wait := time.Until(start.Add(w.jobs[i].due)); wait > 0 {
					time.Sleep(wait)
				}
				w.records[i] = w.do(c, w.jobs[i], start, i)
				completed.Add(1)
			}
		}()
	}
	// CPU per job, second by second; the last, partial second is left out.
	stop := make(chan struct{})
	marker.Add(1)
	go func() {
		defer marker.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		marked := int64(0)
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				done := completed.Load()
				c.cpuMark(int(done - marked))
				marked = done
			}
		}
	}()
	clients.Wait()
	close(stop)
	marker.Wait()
	for _, r := range w.records {
		c.op(r.latency(), r.failure, r.wrong)
	}
	return nil
}

// do carries one job from POST to its terminal view and checks it.
func (w *service) do(c *runCtx, j jobPlan, start time.Time, op int) (rec jobRecord) {
	rec.due = j.due
	rec.sentAt = time.Now()
	rec.sent = rec.sentAt.Sub(start)
	defer func() {
		rec.seenAt = time.Now()
		rec.done = rec.seenAt.Sub(start)
		if rec.failure == "" && op >= 0 && rec.latency() > serviceLimit {
			rec.failure = fmt.Sprintf("job %d took %v, over the %v limit", op, rec.latency(), serviceLimit)
		}
	}()

	body, err := json.Marshal(j.spec)
	if err != nil {
		rec.failure = err.Error()
		return rec
	}
	sp := c.tr.start("api.POST", -1, op, false)
	code, data, err := w.roundTrip(http.MethodPost, "/v1/jobs", j.tenant, body)
	c.tr.end(sp)
	rec.bytes += len(data)
	switch {
	case err != nil:
		rec.failure = "submit: " + err.Error()
		return rec
	case code == http.StatusTooManyRequests:
		rec.failure, rec.rejected = "submit refused with 429", true
		return rec
	case code != http.StatusAccepted:
		rec.failure = fmt.Sprintf("submit: HTTP %d", code)
		return rec
	}
	var accepted api.JobView
	if err := json.Unmarshal(data, &accepted); err != nil {
		rec.failure = "submit reply: " + err.Error()
		return rec
	}

	sp = c.tr.start("api.GET", -1, op, false)
	code, data, err = w.roundTrip(http.MethodGet, "/v1/jobs/"+accepted.ID+"?wait="+serviceWait, j.tenant, nil)
	c.tr.end(sp)
	rec.bytes += len(data)
	if err != nil || code != http.StatusOK {
		rec.failure = fmt.Sprintf("job %s lost: HTTP %d, %v", accepted.ID, code, err)
		return rec
	}
	if err := json.Unmarshal(data, &rec.view); err != nil {
		rec.failure = "job view: " + err.Error()
		return rec
	}
	if rec.view.State != api.StateOptimal {
		rec.failure = fmt.Sprintf("job %s ended %s: %s", accepted.ID, rec.view.State, rec.view.Error)
		return rec
	}

	// The server re-indents the stored result in transit; compact before
	// comparing with the batch-equivalent bytes.
	var compact bytes.Buffer
	if err := json.Compact(&compact, rec.view.Result); err != nil {
		rec.failure, rec.wrong = "job result is not JSON: "+err.Error(), true
		return rec
	}
	if j.fiber >= 0 {
		if !bytes.Equal(compact.Bytes(), w.expected[j.fiber]) {
			rec.failure, rec.wrong = fmt.Sprintf("restore %s: payload differs from api.RestoreResultJSON(restore.Solve(...))", w.fibers[j.fiber]), true
		}
		return rec
	}
	var pr api.PlanResult
	if err := json.Unmarshal(compact.Bytes(), &pr); err != nil || pr.Wavelengths == 0 || pr.Network != "tbackbone" {
		rec.failure, rec.wrong = fmt.Sprintf("plan seed %d: implausible result %s", j.spec.Seed, compact.Bytes()), true
	}
	return rec
}

func (w *service) roundTrip(method, path, tenant string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// layerMetrics splits each job's latency into stages that add up to it
// exactly, because client and server share one clock: generator lateness
// (due → sent), submit (sent → the server's SubmittedAt: request, decode,
// admission), queue wait (→ StartedAt), exec (→ FinishedAt) and notify
// (→ terminal view in the client's hands: long-poll wake, render, reply).
// api.stages_share_of_op is the median job's share of its latency spent
// in the four stages after the send, that is, not waiting for one of the
// nproc connections.
func (w *service) layerMetrics(c *runCtx) {
	var submit, queue, exec, execPlan, notify, late, staged sample
	var bytesRead, misses, rejected float64
	timings := make([]timing, len(w.records))
	for i, r := range w.records {
		timings[i] = r.timing
		late = append(late, float64(r.late())/1e6)
		bytesRead += float64(r.bytes)
		if w.jobs[i].fiber < 0 {
			misses++
		}
		if r.rejected {
			rejected++
		}
		v := r.view
		if v.StartedAt == nil || v.FinishedAt == nil {
			continue
		}
		staged = append(staged, float64(r.seenAt.Sub(r.sentAt))/float64(r.latency()))
		submit = append(submit, float64(v.SubmittedAt.Sub(r.sentAt))/1e6)
		queue = append(queue, float64(v.StartedAt.Sub(v.SubmittedAt))/1e6)
		e := float64(v.FinishedAt.Sub(*v.StartedAt)) / 1e6
		exec = append(exec, e)
		if w.jobs[i].fiber < 0 {
			execPlan = append(execPlan, e)
		}
		notify = append(notify, float64(r.seenAt.Sub(*v.FinishedAt))/1e6)
		c.tr.add("api.queue_wait", v.SubmittedAt, *v.StartedAt, -1, i)
		c.tr.add("api.exec", *v.StartedAt, *v.FinishedAt, -1, i)
	}
	n := float64(len(w.records))
	c.layer["api.submit_ms_p50"] = submit.median()
	c.layer["api.queue_wait_ms_p50"] = queue.median()
	c.layer["api.queue_wait_ms_p90"] = queue.percentile(90)
	c.layer["api.exec_ms_p50"] = exec.median()
	c.layer["api.exec_plan_ms_p50"] = execPlan.median()
	c.layer["api.notify_ms_p50"] = notify.median()
	c.layer["api.stages_share_of_op"] = staged.median()
	c.layer["api.bytes_per_job"] = bytesRead / n
	c.layer["api.plancache_miss_share"] = misses / n
	c.layer["api.rejected_429"] = rejected
	c.layer["gen.offered_per_s"] = n / w.horizon.Seconds()
	c.layer["gen.late_ms_p90"] = late.percentile(90)
	c.layer["gen.backlog_end"] = float64(backlogAtEnd(timings))

	var stats api.SchedStats
	if code, data, err := w.roundTrip(http.MethodGet, "/v1/stats", "bench", nil); err == nil && code == http.StatusOK && json.Unmarshal(data, &stats) == nil {
		c.layer["api.max_queue_depth"] = float64(stats.MaxQueueDepth)
	}
}

// probes time the two pieces of the hot path that have an exported entry
// point of their own: the scheduler with a no-op executor, and the result
// render.
func (w *service) probes(c *runCtx) error {
	sched := api.NewScheduler(api.SchedOptions{
		Workers:  c.nproc,
		Executor: func(context.Context, *api.Job) (json.RawMessage, error) { return nil, nil },
	})
	var noopUs sample
	for i := 0; i < 500; i++ {
		sp := c.tr.start("api.Scheduler.Submit", -1, -1, true)
		job, err := sched.Submit("probe", api.JobSpec{Type: "noop"})
		if err != nil {
			return err
		}
		for !job.State().Terminal() {
			time.Sleep(time.Microsecond)
		}
		noopUs = append(noopUs, float64(c.tr.end(sp))/1e3)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sched.Shutdown(ctx); err != nil {
		return err
	}
	c.layer["api.sched_noop_us_p50"] = noopUs.median()

	n := workload.Cernet(w.hotSeed)
	grid := spectrum.DefaultGrid()
	base, err := plan.Solve(plan.Problem{Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: grid})
	if err != nil {
		return err
	}
	var renderUs sample
	for _, f := range w.fibers {
		res, err := restore.Solve(restore.Problem{
			Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: grid,
			Base: base, Scenario: api.RestoreScenario([]string{f}),
		})
		if err != nil {
			return err
		}
		sp := c.tr.start("api.RestoreResultJSON", -1, -1, true)
		_, err = api.RestoreResultJSON(res)
		renderUs = append(renderUs, float64(c.tr.end(sp))/1e3)
		if err != nil {
			return err
		}
	}
	c.layer["api.render_us_p50"] = renderUs.median()
	return nil
}
