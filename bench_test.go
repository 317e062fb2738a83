// Benchmarks regenerating every table and figure of the FlexWAN paper
// (run with `go test -bench=. -benchmem`), plus ablations over the design
// choices called out in DESIGN.md. Custom metrics attach the headline
// result of each experiment to its bench line, so a bench run doubles as
// a summary of the reproduction.
package flexwan_test

import (
	"runtime"
	"testing"

	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/eval"
	"flexwan/internal/netconf"
	"flexwan/internal/phy"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// tb is the shared synthetic backbone; benchmarks must not mutate it.
var tb = workload.TBackbone(1)

// freshTB returns tb as a network the figure memo has not seen. The figures
// of one network share their plans and sweeps, so a benchmark looping on tb
// itself would time a memo hit from its second iteration on. A cut-free
// Without view is a new topology over tb's index: it gets a memo key of its
// own, and keeps tb's path memo and fiber numbering.
func freshTB() workload.Network {
	return workload.Network{Name: tb.Name, Optical: tb.Optical.Without(), IP: tb.IP}
}

func BenchmarkFig2aPathLengths(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		f := eval.Fig2aPathLengthDistribution(tb)
		frac = f.FracUnder200
	}
	b.ReportMetric(frac*100, "%paths<200km")
}

func BenchmarkFig2bMaxRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := eval.Fig2bMaxRateVsDistance()
		if len(f.DistancesKm) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkFig3Provision800G(b *testing.B) {
	var svtAt250 int
	for i := 0; i < b.N; i++ {
		f := eval.Fig3Provision800G()
		svtAt250 = f.SVTTransponders[1]
	}
	b.ReportMetric(float64(svtAt250), "svt-tx@200km")
}

func BenchmarkTable2Testbed(b *testing.B) {
	matched := 0
	for i := 0; i < b.N; i++ {
		rows := eval.Table2TestbedSweep()
		matched = 0
		for _, r := range rows {
			if r.WithinOneSpan {
				matched++
			}
		}
	}
	b.ReportMetric(float64(matched), "rows-within-1-span")
}

// BenchmarkFig12Planning regenerates Fig 12 at each worker count: the
// (scheme, scale) plans are independent and now run through the pool.
func BenchmarkFig12Planning(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(bName("workers", workers), func(b *testing.B) {
			var flexMax float64
			for i := 0; i < b.N; i++ {
				f, err := eval.Fig12HardwareVsScale(freshTB(), []float64{1, 2, 3, 4, 5, 6, 7, 8}, workers)
				if err != nil {
					b.Fatal(err)
				}
				flexMax = f.MaxScale["FlexWAN"]
			}
			b.ReportMetric(flexMax, "flexwan-max-scale")
		})
	}
}

// BenchmarkFiguresOp times the benchmark's figures op: the §7.1 headline,
// Fig 12 at 1–8×, Fig 15(b) at 1–5× and Fig 16 at 1×, one after the other
// on one network, a network the figure memo has not seen every iteration.
// A first run off the clock fills tb's path memo and the catalogs' tables,
// so an iteration times the four figures sharing their 24 plans and their
// sweeps, not Yen's search.
func BenchmarkFiguresOp(b *testing.B) {
	op := func(n workload.Network) error {
		if _, err := eval.HeadlineSavings(n, 1); err != nil {
			return err
		}
		if _, err := eval.Fig12HardwareVsScale(n, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 0); err != nil {
			return err
		}
		if _, err := eval.Fig15bRestorationVsScale(n, []float64{1, 2, 3, 4, 5}, 0); err != nil {
			return err
		}
		_, err := eval.Fig16RestorationCDF(n, 1, 0)
		return err
	}
	if err := op(tb); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(freshTB()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13aTopologies(b *testing.B) {
	ce := workload.Cernet(1)
	var medianGap float64
	for i := 0; i < b.N; i++ {
		f := eval.Fig13aWeightedPathLengths(tb, ce)
		medianGap = f.Medians["Cernet"] - f.Medians["T-backbone"]
	}
	b.ReportMetric(medianGap, "median-gap-km")
}

func BenchmarkFig13bTopologyGains(b *testing.B) {
	ce := workload.Cernet(1)
	var tbSaved float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig13bTopologyGains(freshTB(), ce)
		if err != nil {
			b.Fatal(err)
		}
		tbSaved = f.PerNetwork[0].TxSavedVs100G
	}
	b.ReportMetric(tbSaved, "%tx-saved-vs-100G")
}

func BenchmarkFig14aReachGap(b *testing.B) {
	var p90 float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig14WavelengthDistributions(freshTB())
		if err != nil {
			b.Fatal(err)
		}
		p90 = f.GapKm["FlexWAN"].Percentile(90)
	}
	b.ReportMetric(p90, "flexwan-gap-p90-km")
}

func BenchmarkFig14bSpectralEff(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig14WavelengthDistributions(freshTB())
		if err != nil {
			b.Fatal(err)
		}
		mean = f.SpectralEff["FlexWAN"].Mean()
	}
	b.ReportMetric(mean, "flexwan-bps-per-hz")
}

func BenchmarkFig15aRestorePathGap(b *testing.B) {
	var fracLonger float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig15aRestoredPathGaps(freshTB(), 0)
		if err != nil {
			b.Fatal(err)
		}
		fracLonger = f.FracLonger
	}
	b.ReportMetric(fracLonger*100, "%restored-longer")
}

// BenchmarkFig15bRestoration regenerates Fig 15b at each worker count so
// a single bench run shows the parallel sweep's wall-clock speedup
// (workers=1 is the sequential path; workers=GOMAXPROCS the full pool).
func BenchmarkFig15bRestoration(b *testing.B) {
	for _, workers := range benchWorkerCounts() {
		b.Run(bName("workers", workers), func(b *testing.B) {
			var flexAt5 float64
			for i := 0; i < b.N; i++ {
				f, err := eval.Fig15bRestorationVsScale(freshTB(), []float64{1, 3, 5}, workers)
				if err != nil {
					b.Fatal(err)
				}
				flexAt5 = f.Capability["FlexWAN"][2]
			}
			b.ReportMetric(flexAt5, "flexwan-capability@5x")
		})
	}
}

// BenchmarkSweepWorkers isolates the scenario sweep itself (one plan,
// all 1-fiber cuts at 3× load) across worker counts — the cleanest
// speedup measurement, with no planning time mixed in.
func BenchmarkSweepWorkers(b *testing.B) {
	base, err := plan.Solve(plan.Problem{
		Optical: tb.Optical, IP: tb.IP.Scale(3), Catalog: transponder.SVT(),
		Grid: spectrum.DefaultGrid(),
	})
	if err != nil {
		b.Fatal(err)
	}
	prob := restore.Problem{
		Optical: tb.Optical, IP: tb.IP.Scale(3), Catalog: transponder.SVT(),
		Grid: spectrum.DefaultGrid(), Base: base,
	}
	scs := restore.SingleFiberScenarios(tb.Optical)
	// One sweep off the clock fills the network's memo of post-cut paths
	// and the catalog's provision table, so that every worker count and
	// every iteration measures the same work.
	if _, err := restore.SweepWithOptions(prob, scs, restore.SweepOptions{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	for _, workers := range benchWorkerCounts() {
		b.Run(bName("workers", workers), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				sweep, err := restore.SweepWithOptions(prob, scs, restore.SweepOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if sweep.Failed() > 0 {
					b.Fatalf("failed scenarios: %v", sweep.FailedIDs())
				}
				mean = sweep.MeanCapability()
			}
			b.ReportMetric(mean, "mean-capability")
		})
	}
}

// benchWorkerCounts is the sweep-parallelism ladder benchmarked above:
// sequential, then doublings up to GOMAXPROCS.
func benchWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	counts := []int{1}
	for w := 2; w < max; w *= 2 {
		counts = append(counts, w)
	}
	if max > 1 {
		counts = append(counts, max)
	}
	return counts
}

func BenchmarkFig16Restoration(b *testing.B) {
	var plusMean float64
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig16RestorationCDF(freshTB(), 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		plusMean = f.Capability["FlexWAN+"].Mean()
	}
	b.ReportMetric(plusMean, "flexwan+-mean-capability")
}

// --- Ablations over DESIGN.md's called-out choices ---

// BenchmarkAblationK varies the number of candidate paths per link.
func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(bName("K", k), func(b *testing.B) {
			var tx int
			for i := 0; i < b.N; i++ {
				res, err := plan.Solve(plan.Problem{
					Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(),
					Grid: spectrum.DefaultGrid(), K: k,
				})
				if err != nil {
					b.Fatal(err)
				}
				tx = res.Transponders()
			}
			b.ReportMetric(float64(tx), "transponders")
		})
	}
}

// BenchmarkAblationEpsilon varies the spectrum weight in the objective.
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{0.0001, 0.001, 0.01, 0.1} {
		b.Run(bFloat("eps", eps), func(b *testing.B) {
			var ghz float64
			for i := 0; i < b.N; i++ {
				res, err := plan.Solve(plan.Problem{
					Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(),
					Grid: spectrum.DefaultGrid(), Epsilon: eps,
				})
				if err != nil {
					b.Fatal(err)
				}
				ghz = res.SpectrumGHz()
			}
			b.ReportMetric(ghz, "spectrum-GHz")
		})
	}
}

// BenchmarkAblationPixelGranularity compares the pixel-wise WSS grid with
// finer slicing and with a rigid 75 GHz grid.
func BenchmarkAblationPixelGranularity(b *testing.B) {
	for _, px := range []float64{6.25, 12.5, 25, 75} {
		grid, err := spectrum.NewGrid(px, spectrum.CBandGHz)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bFloat("pixelGHz", px), func(b *testing.B) {
			var ghz float64
			for i := 0; i < b.N; i++ {
				res, err := plan.Solve(plan.Problem{
					Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(), Grid: grid,
				})
				if err != nil {
					b.Fatal(err)
				}
				ghz = float64(res.Allocator.UsedPixels()) * px
			}
			b.ReportMetric(ghz, "fiber-GHz-occupied")
		})
	}
}

// BenchmarkAblationFit compares first-fit and best-fit spectrum placement.
func BenchmarkAblationFit(b *testing.B) {
	for _, fit := range []spectrum.Fit{spectrum.FirstFit, spectrum.BestFit} {
		b.Run(fit.String(), func(b *testing.B) {
			var tx int
			for i := 0; i < b.N; i++ {
				res, err := plan.Solve(plan.Problem{
					Optical: tb.Optical, IP: tb.IP.Scale(6), Catalog: transponder.SVT(),
					Grid: spectrum.DefaultGrid(), Fit: fit,
				})
				if err != nil {
					b.Fatal(err)
				}
				tx = res.Transponders()
			}
			b.ReportMetric(float64(tx), "transponders@6x")
		})
	}
}

// BenchmarkAblationPlusFraction varies the FlexWAN+ spare fraction.
func BenchmarkAblationPlusFraction(b *testing.B) {
	base, err := plan.Solve(plan.Problem{
		Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid(),
	})
	if err != nil {
		b.Fatal(err)
	}
	radBase, err := plan.Solve(plan.Problem{
		Optical: tb.Optical, IP: tb.IP, Catalog: transponder.RADWAN(), Grid: spectrum.DefaultGrid(),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0, 0.25, 0.5, 1} {
		b.Run(bFloat("frac", frac), func(b *testing.B) {
			spares := restore.PlusSpares(base, radBase, frac)
			var capability float64
			for i := 0; i < b.N; i++ {
				sweep, err := restore.SweepWithOptions(restore.Problem{
					Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(),
					Grid: spectrum.DefaultGrid(), Base: base, ExtraSpares: spares,
				}, restore.SingleFiberScenarios(tb.Optical), restore.SweepOptions{})
				if err != nil {
					b.Fatal(err)
				}
				capability = sweep.MeanCapability()
			}
			b.ReportMetric(capability, "mean-capability")
		})
	}
}

// BenchmarkHeuristicVsExact reports the heuristic's optimality against
// the full MIP on an instance the branch-and-bound can solve.
func BenchmarkHeuristicVsExact(b *testing.B) {
	g := topology.New()
	for _, f := range []struct {
		id   string
		a, z topology.NodeID
		km   float64
	}{
		{"f1", "A", "B", 100}, {"f2", "B", "C", 400}, {"f3", "A", "C", 450},
	} {
		if err := g.AddFiber(f.id, f.a, f.z, f.km); err != nil {
			b.Fatal(err)
		}
	}
	ip := &topology.IPTopology{}
	for _, l := range []topology.IPLink{
		{ID: "e1", A: "A", B: "B", DemandGbps: 500},
		{ID: "e2", A: "A", B: "C", DemandGbps: 300},
	} {
		if err := ip.AddLink(l); err != nil {
			b.Fatal(err)
		}
	}
	p := plan.Problem{
		Optical: g, IP: ip, Catalog: transponder.RADWAN(),
		Grid: spectrum.Grid{PixelGHz: 12.5, Pixels: 24}, K: 2,
	}
	var gap float64
	for i := 0; i < b.N; i++ {
		h, err := plan.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		e, err := plan.SolveExact(p, solver.Options{MaxNodes: 50000})
		if err != nil {
			b.Fatal(err)
		}
		gap = float64(h.Transponders() - e.Transponders())
	}
	b.ReportMetric(gap, "heuristic-minus-exact-tx")
}

// --- Core-primitive micro-benchmarks ---

// BenchmarkKShortestPaths times Yen's search itself. A topology answers a
// repeated question from its memo, so every iteration asks a copy of the
// T-backbone that has not been asked yet, built off the clock.
func BenchmarkKShortestPaths(b *testing.B) {
	nodes, fibers := tb.Optical.Nodes(), tb.Optical.Fibers()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := topology.New()
		for _, f := range fibers {
			if err := g.AddFiber(f.ID, f.A, f.B, f.LengthKm); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		paths := g.KShortestPaths(nodes[0], nodes[len(nodes)-1], 4)
		if len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkSpectrumAllocate(b *testing.B) {
	path := []spectrum.FiberID{"a", "b", "c"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := spectrum.NewAllocator(spectrum.DefaultGrid())
		for {
			if _, err := a.Allocate(path, 9, spectrum.FirstFit); err != nil {
				break
			}
		}
	}
}

func BenchmarkPlanHeuristic(b *testing.B) {
	// Candidate paths come from the network's path memo, and provisions
	// from the catalog's table, which whatever asked first fills: one plan
	// per catalog off the clock, so that every iteration measures the same
	// work.
	for _, cat := range []transponder.Catalog{transponder.Fixed100G(), transponder.RADWAN(), transponder.SVT()} {
		p := plan.Problem{Optical: tb.Optical, IP: tb.IP, Catalog: cat, Grid: spectrum.DefaultGrid()}
		if _, err := plan.Solve(p); err != nil {
			b.Fatal(err)
		}
		b.Run(cat.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Solve(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimplexLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := solver.NewModel("bench", solver.Maximize)
		vars := make([]solver.VarID, 40)
		terms := make([]solver.Term, 40)
		for j := range vars {
			vars[j] = m.AddVar("x", 0, 10, float64(1+j%7))
			terms[j] = solver.Term{Var: vars[j], Coef: float64(1 + j%5)}
		}
		if err := m.AddConstraint("cap", terms, solver.LE, 100); err != nil {
			b.Fatal(err)
		}
		if s := m.SolveLP(); s.Status != solver.Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}

func bName(prefix string, v int) string { return prefix + "=" + itoa(v) }
func bFloat(prefix string, v float64) string {
	return prefix + "=" + trimFloat(v)
}

func itoa(v int) string { return trimFloat(float64(v)) }

func trimFloat(v float64) string {
	s := make([]byte, 0, 8)
	if v < 0 {
		s = append(s, '-')
		v = -v
	}
	whole := int(v)
	s = appendInt(s, whole)
	frac := v - float64(whole)
	if frac > 1e-9 {
		s = append(s, '.')
		for i := 0; i < 4 && frac > 1e-9; i++ {
			frac *= 10
			d := int(frac)
			s = append(s, byte('0'+d))
			frac -= float64(d)
		}
	}
	return string(s)
}

func appendInt(s []byte, v int) []byte {
	if v >= 10 {
		s = appendInt(s, v/10)
	}
	return append(s, byte('0'+v%10))
}

// BenchmarkGNCrossCheck runs the a-priori physics validation of Table 2.
func BenchmarkGNCrossCheck(b *testing.B) {
	var within int
	for i := 0; i < b.N; i++ {
		rows := eval.GNCrossCheck()
		within = 0
		for _, r := range rows {
			if r.Ratio >= 0.3 && r.Ratio <= 8 {
				within++
			}
		}
	}
	b.ReportMetric(float64(within), "formats-within-0.3-8x")
}

// BenchmarkProbabilisticRestoration sweeps sampled multi-fiber failures.
func BenchmarkProbabilisticRestoration(b *testing.B) {
	var flex float64
	for i := 0; i < b.N; i++ {
		f, err := eval.ProbabilisticRestorationSweep(freshTB(), 1, 7, 25, 0.3, 0)
		if err != nil {
			b.Fatal(err)
		}
		flex = f.Capability["FlexWAN"]
	}
	b.ReportMetric(flex, "flexwan-expected-capability")
}

// BenchmarkDefragmentation measures spectrum compaction after churn:
// plan, decommission a third of the links, defragment.
func BenchmarkDefragmentation(b *testing.B) {
	var moves int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := plan.Solve(plan.Problem{
			Optical: tb.Optical, IP: tb.IP.Scale(3), Catalog: transponder.SVT(),
			Grid: spectrum.DefaultGrid(),
		})
		if err != nil {
			b.Fatal(err)
		}
		for j, l := range tb.IP.Links {
			if j%3 == 0 {
				if _, err := plan.Decommission(r, l.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		moves, err = plan.Defragment(plan.Problem{
			Optical: tb.Optical, IP: tb.IP.Scale(3), Catalog: transponder.SVT(),
			Grid: spectrum.DefaultGrid(),
		}, r)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(moves), "wavelengths-moved")
}

// BenchmarkIncrementalVsReplan compares growing one link incrementally
// against replanning the whole network — the §9 evolution advantage.
func BenchmarkIncrementalVsReplan(b *testing.B) {
	p := plan.Problem{
		Optical: tb.Optical, IP: tb.IP, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid(),
	}
	b.Run("extend-one-link", func(b *testing.B) {
		base, err := plan.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		link := tb.IP.Links[0].ID
		for i := 0; i < b.N; i++ {
			if _, err := plan.Extend(p, base, link, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-replan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Solve(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNetconfRPC measures management-protocol round-trip throughput
// (one get-state per iteration against a live transponder agent).
func BenchmarkNetconfRPC(b *testing.B) {
	fabric := device.NewFabric(phy.DefaultLink())
	if err := fabric.AddFiber("f1", 600); err != nil {
		b.Fatal(err)
	}
	agent := device.NewTransponder(devmodel.Descriptor{
		ID: "bench-tx", Class: devmodel.ClassTransponder, Vendor: "v", Address: "x", Site: "A",
	}, spectrum.DefaultGrid(), transponder.SVT(), fabric)
	addr, err := agent.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()
	c, err := netconf.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := agent.Configure(devmodel.TransponderConfig{
		Enabled: true, DataRateGbps: 600, SpacingGHz: 150,
		IntervalStart: 0, IntervalCount: 12, PathFibers: []string{"f1"}, Channel: "b:1",
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st devmodel.TransponderState
		if err := c.Call(netconf.OpGetState, nil, &st); err != nil {
			b.Fatal(err)
		}
	}
}
