// Command flexwanctl runs a complete FlexWAN deployment simulation on one
// machine: a multi-vendor device fleet on loopback TCP, the centralized
// controller, the telemetry data stream, and staged fiber cuts with
// automatic optical restoration. It is the operational face of the
// library — what an operator's session against the real system looks
// like (§4 and §9 of the paper).
//
// Usage:
//
//	flexwanctl -demand 800 -cut f-direct
//	flexwanctl -scheme radwan -cut f-direct       # watch rigid hardware degrade
//	flexwanctl -drill ring -drill-seed 7          # seeded recovery drill
//	flexwanctl -drill all -drill-out drills.json  # both drills, scorecards saved
//
// Against a running flexwand service (see cmd/flexwand):
//
//	flexwanctl submit -type plan -network cernet -wait 2m
//	flexwanctl submit -type restore -network cernet -cut cfib000
//	flexwanctl status                             # scheduler counters
//	flexwanctl devices                            # fleet health
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"flexwan"
	"flexwan/internal/chaos"
)

func main() {
	if len(os.Args) > 1 && serviceCommands[os.Args[1]] {
		if err := runService(os.Args[1], os.Args[2:], os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	demand := flag.Int("demand", 400, "IP link demand in Gbps (A–B)")
	scheme := flag.String("scheme", "flexwan", "transponders: flexwan | radwan | 100g")
	cut := flag.String("cut", "f-direct", "fiber to cut after startup ('' to skip)")
	txPerSite := flag.Int("transponders", 4, "transponder agents per site")
	verbose := flag.Bool("v", false, "controller logs")
	showModel := flag.Bool("model", false, "print the standard device model and exit")
	drill := flag.String("drill", "", "run seeded recovery drills instead of the demo: ring | cernet | all")
	drillSeed := flag.Int64("drill-seed", 1, "fault seed for -drill (same seed ⇒ byte-identical event log)")
	drillOut := flag.String("drill-out", "", "also write the -drill scorecards as JSON to this file")
	pushWorkers := flag.Int("push-workers", 0, "config-push fan-out: 0 = one pipeline per device, 1 = legacy serial, n = bounded pool")
	flag.Parse()

	if *drill != "" {
		if err := runDrills(*drill, *drillSeed, *drillOut, *pushWorkers); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *showModel {
		model := flexwan.StandardDeviceModel()
		for _, class := range []flexwan.DeviceClass{flexwan.ClassTransponder, flexwan.ClassWSS, flexwan.ClassAmplifier} {
			spec := model[class]
			fmt.Printf("%s:\n", class)
			for _, comp := range spec.Components {
				fmt.Printf("  %-14s %s\n", comp.Name, comp.Role)
			}
			for _, edge := range spec.Workflow {
				fmt.Printf("  %s -> %s\n", edge[0], edge[1])
			}
		}
		return
	}

	var catalog flexwan.Catalog
	switch *scheme {
	case "flexwan":
		catalog = flexwan.SVT()
	case "radwan":
		catalog = flexwan.RADWAN()
	case "100g":
		catalog = flexwan.Fixed100G()
	default:
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *scheme)
		os.Exit(2)
	}

	grid := flexwan.DefaultGrid()
	fabric := flexwan.NewFabric(flexwan.DefaultLink())
	optical := flexwan.NewOptical()
	fibers := []struct {
		id   string
		a, b flexwan.NodeID
		km   float64
	}{
		{"f-direct", "A", "B", 600},
		{"f-west", "A", "C", 500},
		{"f-east", "C", "B", 700},
	}
	for _, f := range fibers {
		if err := optical.AddFiber(f.id, f.a, f.b, f.km); err != nil {
			log.Fatal(err)
		}
		if err := fabric.AddFiber(f.id, f.km); err != nil {
			log.Fatal(err)
		}
	}
	ip := &flexwan.IPTopology{}
	if err := ip.AddLink(flexwan.IPLink{ID: "a-b", A: "A", B: "B", DemandGbps: *demand}); err != nil {
		log.Fatal(err)
	}

	logf := func(string, ...interface{}) {}
	if *verbose {
		logf = log.Printf
	}
	ctrl, err := flexwan.NewController(flexwan.ControllerConfig{
		Optical: optical, IP: ip, Catalog: catalog, Grid: grid, K: 3, Logf: logf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.SetPushWorkers(*pushWorkers)

	// Start every agent, then register the fleet in one wave.
	var fleet []flexwan.DeviceDescriptor
	register := func(desc flexwan.DeviceDescriptor, start func(string) (string, error)) {
		addr, err := start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		desc.Address = addr
		fleet = append(fleet, desc)
	}

	for _, site := range []flexwan.NodeID{"A", "B", "C"} {
		for i := 0; i < *txPerSite; i++ {
			desc := flexwan.DeviceDescriptor{
				ID: fmt.Sprintf("tx-%s-%d", site, i), Class: flexwan.ClassTransponder,
				Vendor: "vendor-A", Address: "pending", Site: string(site),
			}
			agent := flexwan.NewTransponderAgent(desc, grid, catalog, fabric)
			defer agent.Close()
			register(desc, agent.Start)
		}
	}
	for _, f := range fibers {
		wssDesc := flexwan.DeviceDescriptor{
			ID: "wss-" + f.id, Class: flexwan.ClassWSS,
			Vendor: "vendor-B", Address: "pending", Site: string(f.a), Fiber: f.id,
		}
		wss := flexwan.NewWSSAgent(wssDesc, grid)
		defer wss.Close()
		register(wssDesc, wss.Start)
		ampDesc := flexwan.DeviceDescriptor{
			ID: "edfa-" + f.id, Class: flexwan.ClassAmplifier,
			Vendor: "vendor-C", Address: "pending", Site: string(f.a), Fiber: f.id,
		}
		amp := flexwan.NewAmplifierAgent(ampDesc, fabric, f.id)
		defer amp.Close()
		register(ampDesc, amp.Start)
	}
	for _, err := range ctrl.DevMgr().RegisterAll(fleet) {
		if err != nil {
			log.Fatal(err)
		}
	}
	devices := ctrl.DevMgr().Devices()
	fmt.Printf("device fleet: %d devices registered\n", len(devices))

	result, err := ctrl.PlanNetwork()
	if err != nil {
		log.Fatal(err)
	}
	if !result.Feasible() {
		log.Fatalf("plan infeasible: %v unserved", result.Unserved)
	}
	if err := ctrl.Apply(result); err != nil {
		log.Fatal(err)
	}
	report, err := ctrl.Audit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan applied: %d wavelengths, %.0f GHz; audit clean = %v\n",
		result.Transponders(), result.SpectrumGHz(), report.Clean())
	fmt.Printf("live capacity: %v\n", ctrl.LiveCapacityGbps())

	if *cut == "" {
		return
	}

	store := flexwan.NewTelemetryStore(4096)
	collector := flexwan.NewCollector(store, 100*time.Millisecond, devices, ctrl.DevMgr())
	collector.Run()
	defer collector.Stop()

	done := make(chan *flexwan.RestoreResult, 1)
	go ctrl.WatchContext(context.Background(), collector.Events(), func(rep *flexwan.RestoreReport) {
		if rep.Result != nil {
			done <- rep.Result
		}
	})

	fmt.Printf("\n*** cutting %s ***\n", *cut)
	start := time.Now()
	fabric.Cut(*cut)

	select {
	case res := <-done:
		fmt.Printf("detected + restored in %v: revived %d of %d Gbps (capability %.2f)\n",
			time.Since(start).Round(time.Millisecond), res.RestoredGbps, res.AffectedGbps, res.Capability())
	case <-time.After(10 * time.Second):
		log.Fatal("restoration did not complete within 10s")
	}
	report, err = ctrl.Audit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-restoration audit clean = %v; live capacity: %v\n",
		report.Clean(), ctrl.LiveCapacityGbps())
}

// runDrills runs the selected drills of the seeded recovery-drill ladder
// (the chaos engine's closed-loop fault scenarios), each on a fresh
// testbed at the given push fan-out. It prints one scorecard line per
// drill and writes the scorecards to out when out is set.
func runDrills(which string, seed int64, out string, pushWorkers int) error {
	var drills []chaos.Drill
	for _, d := range chaos.DrillLadder(seed) {
		name := strings.ToLower(d.Network.Name)
		if which == "all" ||
			(which == "ring" && strings.HasPrefix(name, "ring")) ||
			(which == "cernet" && name == "cernet") {
			drills = append(drills, d)
		}
	}
	if len(drills) == 0 {
		return fmt.Errorf("flexwanctl: no drills match -drill %q (want ring, cernet or all)", which)
	}
	var reports []*chaos.Report
	for _, d := range drills {
		tb, err := chaos.NewTestbed(d.Network, chaos.Options{PushWorkers: pushWorkers})
		if err != nil {
			return fmt.Errorf("flexwanctl: building %s testbed: %w", d.Network.Name, err)
		}
		r, _, err := chaos.Run(tb, d.Scenario)
		tb.Close()
		if err != nil {
			return fmt.Errorf("flexwanctl: drill %s: %w", d.Scenario.Name, err)
		}
		fmt.Printf("%-26s %-10s workers=%d restored %d/%d Gbps  oracle=%v audit=%v  detect=%.1fms solve=%.1fms push=%.1fms (tx %d devices, wss %d)  faults=%d  log=%.12s\n",
			r.Name, r.Network, r.PushWorkers, r.RestoredGbps, r.AffectedGbps, r.OracleMatch, r.AuditClean,
			r.DetectMs, r.SolveMs, r.PushMs, r.PushTxDevices, r.PushWSSDevices, r.FaultsInjected, r.LogHash)
		reports = append(reports, r)
	}
	if out != "" {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d drill records to %s\n", len(reports), out)
	}
	// A drill that diverged from the offline oracle or left the fleet
	// config inconsistent is a failure — the exit code must say so even
	// though the scorecards were printed.
	if failures := drillFailures(reports); len(failures) > 0 {
		return fmt.Errorf("flexwanctl: %d drill(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// drillFailures lists the drill records that failed their closed-loop
// checks: restoration diverging from the offline oracle, or a
// post-recovery audit finding the fleet out of sync with intent.
func drillFailures(reports []*chaos.Report) []string {
	var failures []string
	for _, r := range reports {
		if !r.OracleMatch || !r.AuditClean {
			failures = append(failures,
				fmt.Sprintf("%s on %s (workers=%d): oracle_match=%v audit_clean=%v",
					r.Name, r.Network, r.PushWorkers, r.OracleMatch, r.AuditClean))
		}
	}
	return failures
}
