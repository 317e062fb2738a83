package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"flexwan/internal/api"
)

// serviceCommands are the flexwand-client subcommands; anything else
// falls through to the legacy single-shot simulation flags.
var serviceCommands = map[string]bool{
	"submit": true, "status": true, "devices": true,
}

// runService dispatches one client subcommand against a running flexwand
// service. The returned error means exit nonzero — including when a
// submitted sweep records failed scenarios.
func runService(cmd string, args []string, stdout io.Writer) error {
	switch cmd {
	case "submit":
		return runSubmit(args, stdout)
	case "status":
		return runStatus(args, stdout)
	case "devices":
		return runDevices(args, stdout)
	}
	return fmt.Errorf("flexwanctl: unknown subcommand %q", cmd)
}

func serviceClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Minute}
}

// getJSON fetches url and decodes the JSON body into v, reporting the
// service's error payload on non-2xx statuses.
func getJSON(client *http.Client, url string, v interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return serviceError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func serviceError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("flexwanctl: service answered %d: %s", resp.StatusCode, e.Error)
	}
	return fmt.Errorf("flexwanctl: service answered %d", resp.StatusCode)
}

// runSubmit pushes one job and (by default) waits for its terminal
// state. Exit is nonzero unless the job ends Optimal — and, for sweep
// jobs, unless zero scenarios failed.
func runSubmit(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flexwanctl submit", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8422", "flexwand base URL")
	tenant := fs.String("tenant", "default", "tenant identity (X-Tenant header)")
	typ := fs.String("type", "plan", "job type: plan | restore | sweep | drill")
	network := fs.String("network", "ring4", "topology: ring4 | ring6 | cernet | tbackbone")
	scheme := fs.String("scheme", "", "transponders: flexwan | radwan | 100g")
	k := fs.Int("k", 0, "candidate-path count (0 = planner default)")
	seed := fs.Int64("seed", 0, "demand/fault seed")
	scale := fs.Float64("scale", 0, "demand scale factor (0 = unscaled)")
	exact := fs.Bool("exact", false, "plan jobs: solve the exact MIP")
	cut := fs.String("cut", "", "comma-separated fibers to cut (restore/drill)")
	deadlineMs := fs.Int64("deadline-ms", 0, "end-to-end job deadline from submission (0 = none)")
	wait := fs.Duration("wait", 5*time.Minute, "wait for the terminal state (0 = submit and return)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := api.JobSpec{
		Type: *typ, Network: *network, Scheme: *scheme,
		K: *k, Seed: *seed, Scale: *scale, Exact: *exact,
		DeadlineMs: *deadlineMs,
	}
	if *cut != "" {
		spec.CutFibers = strings.Split(*cut, ",")
	}
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest("POST", *addr+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", *tenant)
	client := serviceClient()
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		defer resp.Body.Close()
		return serviceError(resp)
	}
	var view api.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "submitted %s (%s) as %s\n", view.ID, spec.Type, view.Tenant)
	if *wait <= 0 {
		return nil
	}

	deadline := time.Now().Add(*wait)
	for !view.State.Terminal() {
		if !time.Now().Before(deadline) {
			return fmt.Errorf("flexwanctl: job %s still %s after %v", view.ID, view.State, *wait)
		}
		if err := getJSON(client, *addr+"/v1/jobs/"+view.ID+"?wait=10s", &view); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "%s: %s\n", view.ID, view.State)
	if len(view.Result) > 0 {
		// The service answers compact JSON; indent it for the terminal.
		// (A RawMessage that decoded is valid JSON: Indent cannot fail.)
		var pretty bytes.Buffer
		_ = json.Indent(&pretty, view.Result, "", "  ")
		fmt.Fprintf(stdout, "%s\n", pretty.Bytes())
	}
	if view.State != api.StateOptimal {
		return fmt.Errorf("flexwanctl: job %s finished %s: %s", view.ID, view.State, view.Error)
	}
	if spec.Type == "sweep" {
		var sw api.SweepResult
		if err := json.Unmarshal(view.Result, &sw); err != nil {
			return fmt.Errorf("flexwanctl: decode sweep result: %w", err)
		}
		if sw.Failed > 0 {
			return fmt.Errorf("flexwanctl: sweep recorded %d failed scenarios: %s",
				sw.Failed, strings.Join(sw.FailedIDs, ", "))
		}
	}
	return nil
}

// runStatus prints one job (with -id) or the service counters: the
// scheduler's, the retention window's and the plan cache's.
func runStatus(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flexwanctl status", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8422", "flexwand base URL")
	id := fs.String("id", "", "job ID (empty: scheduler stats)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := serviceClient()
	if *id != "" {
		var view api.JobView
		if err := getJSON(client, *addr+"/v1/jobs/"+*id, &view); err != nil {
			return err
		}
		blob, _ := json.MarshalIndent(view, "", "  ")
		fmt.Fprintf(stdout, "%s\n", blob)
		return nil
	}
	var st api.SchedStats
	if err := getJSON(client, *addr+"/v1/stats", &st); err != nil {
		return err
	}
	blob, _ := json.MarshalIndent(st, "", "  ")
	fmt.Fprintf(stdout, "%s\n", blob)
	return nil
}

// runDevices prints the fleet health table.
func runDevices(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flexwanctl devices", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8422", "flexwand base URL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var devices []map[string]interface{}
	if err := getJSON(serviceClient(), *addr+"/v1/devices", &devices); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-16s %-12s %-10s %-22s %s\n", "ID", "CLASS", "SITE", "ADDRESS", "SESSION")
	for _, d := range devices {
		session := "down"
		if up, _ := d["session_up"].(bool); up {
			session = "up"
		}
		fmt.Fprintf(stdout, "%-16v %-12v %-10v %-22v %s\n",
			d["id"], d["class"], d["site"], d["address"], session)
	}
	fmt.Fprintf(stdout, "%d devices\n", len(devices))
	return nil
}
