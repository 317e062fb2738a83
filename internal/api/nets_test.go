package api

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"flexwan/internal/restore"
)

// runJob submits one job through the server's scheduler and returns its
// terminal view.
func runJob(t *testing.T, s *Server, spec JobSpec) JobView {
	t.Helper()
	j, err := s.Scheduler().Submit("t", spec)
	if err != nil {
		t.Fatalf("submit %+v: %v", spec, err)
	}
	waitTerminal(t, j)
	return j.View(true)
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// batchRestore is the batch equivalent of a restore job: restore.Solve
// on the plan entry's own inputs, rendered by RestoreResultJSON.
func batchRestore(t *testing.T, e *planEntry, k int, cuts []string) []byte {
	t.Helper()
	res, err := restore.Solve(restore.Problem{
		Optical: e.net.Optical, IP: e.net.IP, Catalog: e.catalog, Grid: e.grid,
		Base: e.res, Scenario: RestoreScenario(cuts), K: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RestoreResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPlanCacheLRU: a flood of 3 × cap cold keys, interleaved with
// restores on one hot key, never evicts or re-solves the hot entry, never
// holds more than cap entries, and a cold key that was evicted re-solves
// to the same payload.
func TestPlanCacheLRU(t *testing.T) {
	s := New(Options{Workers: 2})
	defer shutdown(t, s)
	hot := JobSpec{Type: "restore", Network: "ring4", CutFibers: []string{"rfib00"}}
	cold := func(i int) JobSpec {
		// A ring ignores the seed, so each is a cheap, distinct key.
		return JobSpec{Type: "restore", Network: "ring6", Seed: int64(i + 1), CutFibers: []string{"rfib01"}}
	}

	first := runJob(t, s, hot)
	if first.State != StateOptimal {
		t.Fatalf("hot job: %s %s", first.State, first.Error)
	}
	hotEntry, err := s.plans.base(specKey(hot))
	if err != nil {
		t.Fatal(err)
	}
	firstCold := runJob(t, s, cold(0))

	const flood = 3 * planCacheCap
	for i := 1; i <= flood; i++ {
		if v := runJob(t, s, cold(i)); v.State != StateOptimal {
			t.Fatalf("cold job %d: %s %s", i, v.State, v.Error)
		}
		if v := runJob(t, s, hot); !bytes.Equal(v.Result, first.Result) {
			t.Fatalf("hot payload changed after %d cold keys", i)
		}
		if st := s.plans.snapshot(); st.Entries > planCacheCap {
			t.Fatalf("%d entries after %d cold keys, cap %d", st.Entries, i, planCacheCap)
		}
	}
	again, err := s.plans.base(specKey(hot))
	if err != nil {
		t.Fatal(err)
	}
	if again != hotEntry {
		t.Fatalf("hot entry was evicted and re-solved during the flood")
	}
	st := s.plans.snapshot()
	// One miss for the hot key, one per cold key; everything else hit.
	if want := int64(1 + 1 + flood); st.Misses != want {
		t.Fatalf("plan cache misses = %d, want %d (hot key solved once)", st.Misses, want)
	}
	if want := int64(2 + flood - planCacheCap); st.Evictions != want || st.Entries != planCacheCap {
		t.Fatalf("entries=%d evictions=%d, want %d/%d", st.Entries, st.Evictions, planCacheCap, want)
	}
	if st.RestoreHits != flood || st.RestoreMisses != int64(2+flood) {
		t.Fatalf("restore hits=%d misses=%d, want %d/%d", st.RestoreHits, st.RestoreMisses, flood, 2+flood)
	}

	// The first cold key is long gone: it re-solves, to identical bytes.
	v := runJob(t, s, cold(0))
	if !bytes.Equal(v.Result, firstCold.Result) {
		t.Fatalf("evicted key re-solved to a different payload:\nbefore %s\nafter  %s", firstCold.Result, v.Result)
	}
	if got := s.plans.snapshot().Misses; got != st.Misses+1 {
		t.Fatalf("re-request of an evicted key: misses %d → %d, want one more", st.Misses, got)
	}
}

// TestCutKey: the memo key is the ordered cut list with boundaries no
// fiber ID can forge.
func TestCutKey(t *testing.T) {
	sets := [][]string{
		{"a", "b"}, {"b", "a"}, {"a+b"}, {"a", "+b"}, {"a1:b"}, {"a", ""}, {"", "a"}, {"a"}, {"1:a"},
	}
	seen := map[string][]string{}
	for _, cuts := range sets {
		k := cutKey(cuts)
		if prev, dup := seen[k]; dup {
			t.Fatalf("cutKey(%q) == cutKey(%q) == %q", cuts, prev, k)
		}
		seen[k] = cuts
	}
}

// TestRestoreMemo: for every CERNET single-fiber cut and a two-fiber cut
// in both orders, the first (solved) and second (memoised) answers are
// the same bytes, and those are the batch restore.Solve payload.
func TestRestoreMemo(t *testing.T) {
	s := New(Options{Workers: 2})
	defer shutdown(t, s)
	base := JobSpec{Type: "restore", Network: "cernet", Seed: 1}
	e, err := s.plans.base(specKey(base))
	if err != nil {
		t.Fatal(err)
	}
	var cutSets [][]string
	fibers := e.net.Optical.Fibers()
	for _, f := range fibers {
		cutSets = append(cutSets, []string{f.ID})
	}
	a, b := fibers[3].ID, fibers[10].ID
	cutSets = append(cutSets, []string{a, b}, []string{b, a})

	for _, cuts := range cutSets {
		spec := base
		spec.CutFibers = cuts
		want := batchRestore(t, e, spec.K, cuts)
		miss := runJob(t, s, spec)
		hit := runJob(t, s, spec)
		if miss.State != StateOptimal || hit.State != StateOptimal {
			t.Fatalf("cut %v: %s / %s", cuts, miss.State, hit.State)
		}
		if !bytes.Equal(miss.Result, want) || !bytes.Equal(hit.Result, want) {
			t.Fatalf("cut %v:\nmiss  %s\nhit   %s\nbatch %s", cuts, miss.Result, hit.Result, want)
		}
	}
	ab := runJob(t, s, JobSpec{Type: "restore", Network: "cernet", Seed: 1, CutFibers: []string{a, b}})
	ba := runJob(t, s, JobSpec{Type: "restore", Network: "cernet", Seed: 1, CutFibers: []string{b, a}})
	if bytes.Equal(ab.Result, ba.Result) {
		t.Fatalf("cut %s+%s and %s+%s share a payload; the scenario ID is ordered", a, b, b, a)
	}
	st := s.plans.snapshot()
	n := int64(len(cutSets))
	if st.RestoreMisses != n || st.RestoreHits != n+2 {
		t.Fatalf("restore misses=%d hits=%d, want %d/%d", st.RestoreMisses, st.RestoreHits, n, n+2)
	}
	if st.Misses != 1 {
		t.Fatalf("plan cache misses = %d, want 1", st.Misses)
	}
}

// TestRestoreMemoHonoursDeadline: a memoised answer does not rescue a job
// whose deadline has passed — the context check comes first.
func TestRestoreMemoHonoursDeadline(t *testing.T) {
	gate := make(chan struct{})
	var s *Server
	s = New(Options{Workers: 1, executor: func(ctx context.Context, j *Job) (json.RawMessage, error) {
		if j.Spec.Type == "block" {
			<-gate
			return nil, nil
		}
		return s.executeJob(ctx, j)
	}})
	defer shutdown(t, s)
	spec := JobSpec{Type: "restore", Network: "ring4", CutFibers: []string{"rfib00"}}
	if v := runJob(t, s, spec); v.State != StateOptimal {
		t.Fatalf("warm-up: %s %s", v.State, v.Error)
	}

	// The executor itself, past its deadline, on the memoised cut.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if payload, err := s.runRestore(ctx, newJob("x", "t", spec, time.Now())); err != context.Canceled || payload != nil {
		t.Fatalf("runRestore on a canceled context = %s, %v; want nil, context.Canceled", payload, err)
	}

	// And end to end: the deadline fires while the job is queued.
	blocker, err := s.Scheduler().Submit("t", JobSpec{Type: "block"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	spec.DeadlineMs = 20
	doomed, err := s.Scheduler().Submit("t", spec)
	if err != nil {
		t.Fatal(err)
	}
	<-doomed.Context().Done()
	close(gate)
	if got := waitTerminal(t, doomed); got != StateCanceled {
		t.Fatalf("expired job on a memoised cut finished %s, want Canceled", got)
	}
	if v := doomed.View(true); len(v.Result) != 0 {
		t.Fatalf("canceled job carries a result: %s", v.Result)
	}
}

// TestRestoreMemoConcurrentFirst: concurrent first requests for one cut
// may each solve, but every caller gets the one stored copy.
func TestRestoreMemoConcurrentFirst(t *testing.T) {
	s := New(Options{})
	defer shutdown(t, s)
	spec := JobSpec{Type: "restore", Network: "ring6", CutFibers: []string{"rfib02"}}
	const callers = 8
	payloads := make([]json.RawMessage, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range payloads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, err := s.runRestore(context.Background(), newJob("x", "t", spec, time.Now()))
			if err != nil {
				t.Error(err)
			}
			payloads[i] = p
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, p := range payloads {
		if len(p) == 0 || &p[0] != &payloads[0][0] {
			t.Fatalf("caller %d got its own copy of the payload, want the stored one", i)
		}
	}
	e, _ := s.plans.base(specKey(spec))
	if want := batchRestore(t, e, spec.K, spec.CutFibers); !bytes.Equal(payloads[0], want) {
		t.Fatalf("stored payload %s, batch %s", payloads[0], want)
	}
	if len(e.memo) != 1 {
		t.Fatalf("memo holds %d payloads for one cut", len(e.memo))
	}
}

// TestRestoreMemoBounded: an entry's memo never outgrows restoreMemoCap.
func TestRestoreMemoBounded(t *testing.T) {
	e := &planEntry{}
	for i := 0; i < restoreMemoCap+50; i++ {
		e.remember(cutKey([]string{"f", string(rune('a' + i%26)), string(rune('a' + i/26))}), json.RawMessage(`{}`))
		if len(e.memo) > restoreMemoCap {
			t.Fatalf("memo grew to %d, cap %d", len(e.memo), restoreMemoCap)
		}
	}
	if len(e.memo) != restoreMemoCap {
		t.Fatalf("memo holds %d after overflow, want it full at %d", len(e.memo), restoreMemoCap)
	}
}

// TestServiceSteadyStateHeap: the daemon stops growing. 6 000 jobs — 95 %
// restores on one hot backbone, 5 % plans on seeds never seen before —
// straight through the server's scheduler; the live heap after job 2 000
// (cache and retention window both full) and after job 6 000 is the same
// to within 1 MB. Unbounded, the second is ~17 MB above the first.
func TestServiceSteadyStateHeap(t *testing.T) {
	s := New(Options{})
	defer shutdown(t, s)
	e, err := s.plans.base(planKey{network: "cernet", seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fibers := e.net.Optical.Fibers()
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var at2000 uint64
	for i := 1; i <= 6000; i++ {
		spec := JobSpec{Type: "restore", Network: "cernet", Seed: 7, CutFibers: []string{fibers[i%len(fibers)].ID}}
		if i%20 == 0 {
			spec = JobSpec{Type: "plan", Network: "tbackbone", Seed: 1<<30 + int64(i)}
		}
		j, err := s.Scheduler().Submit("t", spec)
		if err != nil {
			t.Fatal(err)
		}
		// Not waitTerminal: its 10 s time.After outlives the job and would
		// be the one thing growing here.
		for _, state, change := j.watch(1); !state.Terminal(); _, state, change = j.watch(1) {
			<-change
		}
		if v := j.View(false); v.State != StateOptimal {
			t.Fatalf("job %d (%s) finished %s: %s", i, spec.Type, v.State, v.Error)
		}
		if i == 2000 {
			at2000 = liveHeap()
		}
	}
	at6000 := liveHeap()
	t.Logf("live heap: %.2f MB at job 2000, %.2f MB at job 6000", float64(at2000)/1e6, float64(at6000)/1e6)
	if diff := int64(at6000) - int64(at2000); diff > 1<<20 || diff < -(1<<20) {
		t.Fatalf("live heap moved %+d bytes between job 2000 and job 6000, want under 1 MB", diff)
	}
	st := s.Scheduler().Stats()
	if st.JobsRetained != 4*st.QueueDepth || st.JobsEvicted != 6000-4*st.QueueDepth {
		t.Fatalf("jobs_retained=%d jobs_evicted=%d", st.JobsRetained, st.JobsEvicted)
	}
	if pc := s.plans.snapshot(); pc.Entries != planCacheCap || pc.Evictions != 301-planCacheCap {
		t.Fatalf("plan cache entries=%d evictions=%d", pc.Entries, pc.Evictions)
	}
}
