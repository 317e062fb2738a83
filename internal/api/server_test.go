package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flexwan/internal/chaos"
	"flexwan/internal/controller"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{QueueDepth: 64, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func submitJob(t *testing.T, ts *httptest.Server, tenant string, spec JobSpec) JobView {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode submit reply: %v", err)
	}
	return v
}

func waitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=5s")
		if err != nil {
			t.Fatalf("get job: %v", err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job: %v", err)
		}
		if v.State.Terminal() {
			return v
		}
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobView{}
}

// TestServicePlanJob: submit a plan job over HTTP, long-poll it to the
// terminal Optimal, and check the result payload — the CI smoke test's
// in-process twin.
func TestServicePlanJob(t *testing.T) {
	_, ts := newTestServer(t)
	v := submitJob(t, ts, "tenant-a", JobSpec{Type: "plan", Network: "ring4"})
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job state = %s", v.State)
	}
	if v.Tenant != "tenant-a" {
		t.Fatalf("tenant = %q", v.Tenant)
	}
	done := waitJob(t, ts, v.ID)
	if done.State != StateOptimal {
		t.Fatalf("job finished %s (error %q), want Optimal", done.State, done.Error)
	}
	var res PlanResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if !res.Feasible || res.Wavelengths == 0 {
		t.Fatalf("plan result not feasible: %+v", res)
	}
}

// TestServiceRestoreBitIdentical: a restoration job through the service
// must produce a payload byte-identical to the equivalent batch
// restore.Solve call — the cache and scheduler may change timing, never
// results.
func TestServiceRestoreBitIdentical(t *testing.T) {
	_, ts := newTestServer(t)
	spec := JobSpec{Type: "restore", Network: "ring4", CutFibers: []string{"rfib00"}}
	v := submitJob(t, ts, "tenant-a", spec)
	done := waitJob(t, ts, v.ID)
	if done.State != StateOptimal {
		t.Fatalf("job finished %s (error %q), want Optimal", done.State, done.Error)
	}

	// The batch equivalent, built from scratch.
	net, err := ResolveNetwork(spec.Network, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := ResolveCatalog(spec.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	grid := spectrum.DefaultGrid()
	base, err := plan.Solve(plan.Problem{Optical: net.Optical, IP: net.IP, Catalog: catalog, Grid: grid, K: spec.K})
	if err != nil {
		t.Fatal(err)
	}
	res, err := restore.Solve(restore.Problem{
		Optical: net.Optical, IP: net.IP, Catalog: catalog, Grid: grid,
		Base: base, Scenario: RestoreScenario(spec.CutFibers), K: spec.K,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RestoreResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	// The stored payload is exactly RestoreResultJSON's bytes, and the
	// HTTP encoder sends them as they are: compact, byte for byte.
	if !bytes.Equal(done.Result, want) {
		t.Fatalf("service result differs from batch restore.Solve:\nservice: %s\nbatch:   %s", done.Result, want)
	}
}

// TestServiceQueueFull429: overflowing the admission queue answers 429.
// A gated executor holds the single worker so the queue genuinely fills.
func TestServiceQueueFull429(t *testing.T) {
	g := newGateExec()
	s := New(Options{QueueDepth: 1, Workers: 1, executor: g.run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		close(g.release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	body, _ := json.Marshal(JobSpec{Type: "plan", Network: "ring4"})
	started := g.expectStart("j-000001")
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post blocker: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post blocker: status %d", resp.StatusCode)
	}
	<-started // worker held; everything else queues

	got429 := false
	for i := 0; i < 10 && !got429; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			got429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After")
			}
		default:
			t.Fatalf("post: status %d", resp.StatusCode)
		}
	}
	if !got429 {
		t.Fatalf("never saw 429 past a depth-1 queue")
	}
}

// TestServiceEvents: the event log is readable as JSON (with from-cursor)
// and as an SSE stream, and ends with the terminal transition.
func TestServiceEvents(t *testing.T) {
	_, ts := newTestServer(t)
	v := submitJob(t, ts, "tenant-a", JobSpec{Type: "plan", Network: "ring4"})
	waitJob(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events?from=1&wait=5s")
	if err != nil {
		t.Fatalf("get events: %v", err)
	}
	var evs []JobEvent
	err = json.NewDecoder(resp.Body).Decode(&evs)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode events: %v", err)
	}
	if len(evs) < 2 {
		t.Fatalf("only %d events", len(evs))
	}
	if evs[0].State != StateQueued || evs[len(evs)-1].State != StateOptimal {
		t.Fatalf("event log %v: want Queued first, Optimal last", evs)
	}
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	// SSE: same stream, one data: line per event, ends at terminal.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("sse: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("sse content-type %q", ct)
	}
	var dataLines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			dataLines++
		}
	}
	if dataLines != len(evs) {
		t.Fatalf("sse streamed %d events, json had %d", dataLines, len(evs))
	}
}

// TestServiceConfigsAndDevices: without a fleet the device endpoints
// answer 503; the config store starts empty and serves appended versions
// with snapshots elided from the list view.
func TestServiceConfigsAndDevices(t *testing.T) {
	s, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("devices without fleet: status %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/configs")
	if err != nil {
		t.Fatal(err)
	}
	var list []json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list) != 0 {
		t.Fatalf("fresh config list = %v (err %v), want empty", list, err)
	}

	if _, err := s.Store().Append(controller.ConfigVersion{Actor: "op", Action: "apply", Summary: "test version"}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/configs/1")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]interface{}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got["actor"] != "op" || got["version"] != float64(1) {
		t.Fatalf("config version 1 = %v", got)
	}

	resp, err = http.Get(ts.URL + "/v1/configs/7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing config version: status %d, want 404", resp.StatusCode)
	}
}

// TestServiceBadRequests: unknown jobs 404, bad specs 400, unknown job
// types fail the job rather than the request.
func TestServiceBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{bad json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d, want 400", resp.StatusCode)
	}

	v := submitJob(t, ts, "t", JobSpec{Type: "nonsense", Network: "ring4"})
	done := waitJob(t, ts, v.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "unknown job type") {
		t.Fatalf("nonsense job: state %s error %q, want Failed/unknown job type", done.State, done.Error)
	}

	v = submitJob(t, ts, "t", JobSpec{Type: "plan", Network: "atlantis"})
	done = waitJob(t, ts, v.ID)
	if done.State != StateFailed || !strings.Contains(done.Error, "unknown network") {
		t.Fatalf("bad network job: state %s error %q, want Failed/unknown network", done.State, done.Error)
	}
}

// TestDevicesReportsSessionLiveness: GET /v1/devices shows session_up
// false for a crashed device as soon as its session has noticed, without
// waiting for some later RPC to trip over it.
func TestDevicesReportsSessionLiveness(t *testing.T) {
	tb, err := chaos.NewTestbed(chaos.RingNetwork(4, 100, 200), chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	s := New(Options{Controller: tb.Ctrl})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	sessionsUp := func() map[string]bool {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/devices")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var health []controller.DeviceHealth
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		up := make(map[string]bool, len(health))
		for _, h := range health {
			up[h.ID] = h.SessionUp
		}
		return up
	}

	const victim = "tx-r00-00"
	for id, up := range sessionsUp() {
		if !up {
			t.Errorf("%s reports session_up false on a healthy fleet", id)
		}
	}
	client, ok := tb.Ctrl.DevMgr().Client(victim)
	if !ok {
		t.Fatalf("no pooled session for %s", victim)
	}
	tb.Transponders[victim].Crash()
	select {
	case <-client.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("pooled session never noticed the crash")
	}
	for id, up := range sessionsUp() {
		if up == (id == victim) {
			t.Errorf("after crashing %s: %s reports session_up %v", victim, id, up)
		}
	}
}

// TestServiceBodyLimit: request bodies are read through a 64 KiB cap —
// past it the answer is 413, not an unbounded decode.
func TestServiceBodyLimit(t *testing.T) {
	tb, err := chaos.NewTestbed(chaos.RingNetwork(4, 100, 200), chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	s := New(Options{Controller: tb.Ctrl})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		shutdown(t, s)
	}()

	huge := `{"type":"plan","network":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/devices"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: status %d, want 413", path, len(huge), resp.StatusCode)
		}
		resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader("{bad json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s with bad JSON: status %d, want 400", path, resp.StatusCode)
		}
	}
	if st := s.Scheduler().Stats(); st.Submitted != 0 {
		t.Fatalf("%d jobs admitted from refused bodies", st.Submitted)
	}
}

// TestServiceRejectsUnknownKeys: a body key the endpoint has no field for
// answers 400 naming the key — a typo'd "cut_fiber", or the retired
// "pricing" and "workers" — instead of running as if the key were absent.
func TestServiceRejectsUnknownKeys(t *testing.T) {
	tb, err := chaos.NewTestbed(chaos.RingNetwork(4, 100, 200), chaos.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	s := New(Options{Controller: tb.Ctrl})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		shutdown(t, s)
	}()
	devices := len(tb.Ctrl.DevMgr().Health())

	for _, tc := range []struct{ path, body, key string }{
		{"/v1/jobs", `{"type":"restore","network":"ring4","cut_fiber":["rfib00"]}`, "cut_fiber"},
		{"/v1/jobs", `{"type":"plan","network":"ring4","exact":true,"pricing":"dantzig"}`, "pricing"},
		{"/v1/jobs", `{"type":"plan","network":"ring4","exact":true,"workers":2}`, "workers"},
		{"/v1/devices", `{"id":"tx-new","class":"transponder","vendor":"v","address":"127.0.0.1:1","site":"A","port":7}`, "port"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"`+tc.key+`"`) {
			t.Errorf("POST %s %s: status %d, error %q (%v); want 400 naming %q", tc.path, tc.body, resp.StatusCode, e.Error, err, tc.key)
		}
	}
	if st := s.Scheduler().Stats(); st.Submitted != 0 {
		t.Fatalf("%d jobs admitted from refused bodies", st.Submitted)
	}
	if n := len(tb.Ctrl.DevMgr().Health()); n != devices {
		t.Fatalf("%d devices registered, want the fleet's %d", n, devices)
	}
}

// TestServiceRejectsAllButOneObject: a job spec is exactly one JSON
// object. Data after it and a body that is not an object answer 400 and
// admit no job; whitespace around the object is fine.
func TestServiceRejectsAllButOneObject(t *testing.T) {
	s, ts := newTestServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"type":"plan","network":"ring4"} trailing`, http.StatusBadRequest},
		{`{"type":"plan"}{"type":"sweep"}`, http.StatusBadRequest},
		{`null`, http.StatusBadRequest},
		{" \n{\"type\":\"plan\",\"network\":\"ring4\"}\r\n\t ", http.StatusAccepted},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST /v1/jobs %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	if st := s.Scheduler().Stats(); st.Submitted != 1 {
		t.Fatalf("%d jobs admitted, want the one well-formed body's", st.Submitted)
	}
}

// TestServiceStatsAndRetention: /v1/stats keeps its top-level scheduler
// keys and adds the retention and plan-cache counters; responses are
// compact; a finished job past the 4 × QueueDepth window answers 404 and
// GET /v1/jobs lists the window in admission order.
func TestServiceStatsAndRetention(t *testing.T) {
	const depth, extra = 2, 3
	s := New(Options{QueueDepth: depth, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		shutdown(t, s)
	}()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	var ids []string
	for i := 0; i < 4*depth+extra; i++ {
		v := submitJob(t, ts, "t", JobSpec{Type: "restore", Network: "ring4", CutFibers: []string{"rfib00"}})
		if done := waitJob(t, ts, v.ID); done.State != StateOptimal {
			t.Fatalf("job %s: %s %s", v.ID, done.State, done.Error)
		}
		ids = append(ids, v.ID)
	}
	for i, id := range ids {
		code, body := get("/v1/jobs/" + id)
		if want := map[bool]int{true: http.StatusNotFound, false: http.StatusOK}[i < extra]; code != want {
			t.Fatalf("GET job %d of %d: status %d, want %d (%s)", i+1, len(ids), code, want, body)
		}
		if bytes.Contains(bytes.TrimSpace(body), []byte("\n")) {
			t.Fatalf("response is not compact: %s", body)
		}
	}
	code, body := get("/v1/jobs")
	var list []JobView
	if err := json.Unmarshal(body, &list); code != http.StatusOK || err != nil {
		t.Fatalf("list: status %d, %v", code, err)
	}
	if len(list) != 4*depth {
		t.Fatalf("list has %d jobs, want the %d-job window", len(list), 4*depth)
	}
	for i, v := range list {
		if v.ID != ids[extra+i] {
			t.Fatalf("list[%d] = %s, want %s (admission order)", i, v.ID, ids[extra+i])
		}
	}

	code, body = get("/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	var st struct {
		MaxQueueDepth *int            `json:"max_queue_depth"`
		Optimal       int             `json:"optimal"`
		JobsRetained  int             `json:"jobs_retained"`
		JobsEvicted   int             `json:"jobs_evicted"`
		PlanCache     *PlanCacheStats `json:"plan_cache"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.MaxQueueDepth == nil || st.Optimal != len(ids) {
		t.Fatalf("stats lost a top-level scheduler key: %s", body)
	}
	if st.JobsRetained != 4*depth || st.JobsEvicted != extra {
		t.Fatalf("jobs_retained=%d jobs_evicted=%d, want %d/%d", st.JobsRetained, st.JobsEvicted, 4*depth, extra)
	}
	want := PlanCacheStats{Entries: 1, Hits: int64(len(ids)) - 1, Misses: 1, RestoreHits: int64(len(ids)) - 1, RestoreMisses: 1}
	if st.PlanCache == nil || *st.PlanCache != want {
		t.Fatalf("plan_cache = %+v, want %+v", st.PlanCache, want)
	}
}
