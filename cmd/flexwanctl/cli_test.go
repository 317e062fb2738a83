package main

import (
	"bytes"
	"context"
	"encoding/json"

	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flexwan/internal/api"
	"flexwan/internal/chaos"
)

// TestDrillFailuresExit: a drill ladder whose reports include an oracle
// divergence or a dirty audit must surface as failures (→ nonzero exit),
// while all-clean ladders stay silent (→ exit 0).
func TestDrillFailuresExit(t *testing.T) {
	clean := []*chaos.Report{
		{Name: "cut", Network: "ring4", OracleMatch: true, AuditClean: true},
		{Name: "crash", Network: "ring6", OracleMatch: true, AuditClean: true},
	}
	if got := drillFailures(clean); len(got) != 0 {
		t.Fatalf("clean ladder reported failures: %v", got)
	}

	bad := []*chaos.Report{
		{Name: "cut", Network: "ring4", OracleMatch: true, AuditClean: true},
		{Name: "crash", Network: "ring6", OracleMatch: false, AuditClean: true},
		{Name: "flap", Network: "cernet", OracleMatch: true, AuditClean: false},
	}
	got := drillFailures(bad)
	if len(got) != 2 {
		t.Fatalf("drillFailures = %v, want 2 entries", got)
	}
	if !strings.Contains(got[0], "oracle_match=false") || !strings.Contains(got[1], "audit_clean=false") {
		t.Fatalf("failure lines don't name the failed check: %v", got)
	}
}

func startService(t *testing.T, opts api.Options) *httptest.Server {
	t.Helper()
	s := api.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return ts
}

// TestSubmitCLI: the submit subcommand against a live in-process service
// — exit 0 with the terminal state printed for a good plan job, exit
// nonzero for a job that fails.
func TestSubmitCLI(t *testing.T) {
	ts := startService(t, api.Options{QueueDepth: 16, Workers: 2})

	var out bytes.Buffer
	err := runService("submit", []string{
		"-addr", ts.URL, "-type", "plan", "-network", "ring4", "-wait", "2m",
	}, &out)
	if err != nil {
		t.Fatalf("submit plan: %v (output %q)", err, out.String())
	}
	if !strings.Contains(out.String(), "Optimal") {
		t.Fatalf("submit output %q does not report Optimal", out.String())
	}

	out.Reset()
	err = runService("submit", []string{
		"-addr", ts.URL, "-type", "plan", "-network", "atlantis", "-wait", "2m",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "Failed") {
		t.Fatalf("submit to unknown network: err = %v, want Failed", err)
	}

	// status with the job ID round-trips.
	out.Reset()
	if err := runService("status", []string{"-addr", ts.URL, "-id", "j-000001"}, &out); err != nil {
		t.Fatalf("status: %v", err)
	}
	if !strings.Contains(out.String(), `"j-000001"`) {
		t.Fatalf("status output %q missing job ID", out.String())
	}

	// status without an ID prints the service counters, the retention
	// window's and the plan cache's included.
	out.Reset()
	if err := runService("status", []string{"-addr", ts.URL}, &out); err != nil {
		t.Fatalf("status: %v", err)
	}
	for _, want := range []string{`"submitted": 2`, `"jobs_retained": 2`, `"jobs_evicted": 0`, `"plan_cache": {`, `"entries": 2`, `"misses": 2`, `"restore_hits": 0`} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("status output missing %s:\n%s", want, out.String())
		}
	}

	// devices without a fleet: the 503 becomes a nonzero exit.
	if err := runService("devices", []string{"-addr", ts.URL}, &out); err == nil {
		t.Fatalf("devices without fleet: want error")
	}
}

// TestSubmitExactPricingCLI: an exact plan job rides the CLI end to end
// and its solver stats carry no pricing rule — the rule is a test-only
// solver switch now, and -pricing is no longer a submit flag.
func TestSubmitExactPricingCLI(t *testing.T) {
	ts := startService(t, api.Options{QueueDepth: 16, Workers: 2})

	var out bytes.Buffer
	if raceDetectorOn {
		// The exact MIP solve is ~20× slower under the detector and has
		// no concurrency of its own worth racing; the flag check below
		// still runs.
		t.Log("race detector on: skipping the full exact-solve submit")
	} else {
		err := runService("submit", []string{
			"-addr", ts.URL, "-type", "plan", "-network", "ring4", "-k", "1", "-scale", "0.25",
			"-exact", "-wait", "5m",
		}, &out)
		if err != nil {
			t.Fatalf("submit exact plan: %v (output %q)", err, out.String())
		}
		if !strings.Contains(out.String(), `"SimplexIters"`) || strings.Contains(out.String(), "Pricing") {
			t.Fatalf("submit output %q: want exact solver stats without a pricing rule", out.String())
		}
	}

	out.Reset()
	err := runService("submit", []string{
		"-addr", ts.URL, "-type", "plan", "-network", "ring4", "-exact", "-pricing", "devex",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "-pricing") {
		t.Fatalf("submit -pricing: err = %v, want an undefined-flag error", err)
	}
}

// TestSubmitSweepFailedScenariosExit: a sweep job that completes but
// records failed scenarios must exit nonzero — the service-era
// equivalent of the drill exit-code contract.
func TestSubmitSweepFailedScenariosExit(t *testing.T) {
	mux := http.NewServeMux()
	job := api.JobView{ID: "j-000001", Tenant: "default", State: api.StateQueued}
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(job)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		done := job
		done.State = api.StateOptimal
		done.Result = json.RawMessage(`{"scenarios":5,"failed":2,"failed_ids":["cut-f1","cut-f9"],"mean_capability":0.71}`)
		_ = json.NewEncoder(w).Encode(done)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out bytes.Buffer
	err := runService("submit", []string{
		"-addr", ts.URL, "-type", "sweep", "-network", "cernet",
	}, &out)
	if err == nil {
		t.Fatalf("sweep with failed scenarios exited 0 (output %q)", out.String())
	}
	for _, want := range []string{"2 failed scenarios", "cut-f1", "cut-f9"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("sweep error %q missing %q", err, want)
		}
	}
}
