package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"flexwan/internal/eval"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// One figures op regenerates the paper's planning and restoration
// figures on one seeded T-backbone with workers = nproc: the §7.1
// headline savings, Fig 12 (hardware vs scale 1–8), Fig 15b (restoration
// vs scale 1–5) and Fig 16 (restoration CDF at 1×). Networks whose 1×
// baseline the 100G scheme cannot serve are skipped and recorded: the
// headline comparison is undefined there by construction.
var (
	fig12Scales  = []float64{1, 2, 3, 4, 5, 6, 7, 8}
	fig15bScales = []float64{1, 2, 3, 4, 5}
)

// figuresPinned is how many ops golden_seed1.json pins by output hash.
const figuresPinned = 4

var figuresLayer = []metricDef{
	{Name: "eval.headline_ms_p50", Unit: "ms", Better: lower},
	{Name: "eval.fig12_s_p50", Unit: "s", Better: lower},
	{Name: "eval.fig15b_s_p50", Unit: "s", Better: lower},
	{Name: "eval.fig16_s_p50", Unit: "s", Better: lower},
	{Name: "eval.children_share_of_op", Unit: "share", Better: higher},
	{Name: "eval.skipped_networks", Unit: "count", Better: lower},
	{Name: "plan.solve_ms_p50", Unit: "ms", Better: lower},
	{Name: "plan.solve_calls", Unit: "count", Better: lower},
	{Name: "plan.alloc_kb_per_solve", Unit: "KB", Better: lower},
	{Name: "restore.solve_us_p50", Unit: "us", Better: lower},
	{Name: "restore.solve_us_p90", Unit: "us", Better: lower},
	{Name: "restore.solve_calls", Unit: "count", Better: lower},
	{Name: "restore.sweep_ms_p50", Unit: "ms", Better: lower},
	{Name: "restore.restored_share", Unit: "share", Better: higher},
	{Name: "topology.ksp_us_p50", Unit: "us", Better: lower},
	{Name: "topology.ksp_calls", Unit: "count", Better: lower},
	{Name: "topology.without_us_p50", Unit: "us", Better: lower},
	{Name: "transponder.minprovision_us_p50", Unit: "us", Better: lower},
	{Name: "spectrum.allocate_us_p50", Unit: "us", Better: lower},
	{Name: "spectrum.find_us_p50", Unit: "us", Better: lower},
	{Name: "parallel.sweep_speedup", Unit: "x", Better: higher},
}

type figures struct {
	rng     *rand.Rand
	skipped int
	first   workload.Network // the first op's network, replayed by probes
	opMs    sample
}

func (w *figures) name() string { return "figures" }
func (w *figures) close()       {}

// nextNetwork draws T-backbones until one has a feasible 1× baseline.
func (w *figures) nextNetwork(c *runCtx, op int) (workload.Network, error) {
	for {
		tbSeed := w.rng.Int63n(1 << 30)
		sp := c.tr.start("workload.generate", -1, op, false)
		n := workload.TBackbone(tbSeed)
		c.tr.end(sp)
		base, err := plan.Solve(plan.Problem{
			Optical: n.Optical, IP: n.IP, Catalog: transponder.Fixed100G(), Grid: spectrum.DefaultGrid(),
		})
		if err != nil {
			return workload.Network{}, err
		}
		if base.Feasible() {
			return n, nil
		}
		if op >= 0 {
			w.skipped++
			c.note("T-backbone seed %d skipped: 100G baseline infeasible at 1x", tbSeed)
		}
	}
}

// setup draws the first network of a stream of its own — the same one at
// every seed — regenerates its figures once as the warm-up, and opens the
// seed's stream for the timed ops.
func (w *figures) setup(c *runCtx) error {
	if err := checkWorkers("figure workers", c.nproc); err != nil {
		return err
	}
	w.rng = rand.New(rand.NewSource(warmupSeed))
	if _, failure, _ := w.next(c, -1); failure != "" {
		return fmt.Errorf("warm-up: %s", failure)
	}
	w.rng = rand.New(rand.NewSource(c.seed*7919 + 2))
	return nil
}

func (w *figures) run(c *runCtx) error {
	for op := 0; !c.expired(); op++ {
		lat, failure, wrong := w.next(c, op)
		if failure == "" {
			w.opMs = append(w.opMs, float64(lat)/1e6)
		}
		c.op(lat, failure, wrong)
		c.cpuMark(1)
	}
	return nil
}

// next draws the stream's next network and regenerates its figures. The
// pipeline is deterministic — the same network renders the same figures —
// so seed 1 pins the hashes of the first ops.
func (w *figures) next(c *runCtx, op int) (lat time.Duration, failure string, wrong bool) {
	n, err := w.nextNetwork(c, op)
	if err != nil {
		return 0, err.Error(), false
	}
	if op == 0 {
		w.first = n
	}
	lat, hash, failure, wrong := w.regenerate(c, n, op)
	if failure == "" && op >= 0 && op < figuresPinned {
		if m := c.golden.check(w.name(), op, hash); m != "" {
			failure, wrong = m, true
		}
	}
	return lat, failure, wrong
}

// regenerate is the op: four eval calls, each a child span, then checks
// on what they returned. The hash covers every rendered figure.
func (w *figures) regenerate(c *runCtx, n workload.Network, op int) (lat time.Duration, hash, failure string, wrong bool) {
	root := c.tr.start("bench.figures_op", -1, op, false)
	t0 := time.Now()

	sp := c.tr.start("eval.HeadlineSavings", root, op, false)
	sav, err := eval.HeadlineSavings(n, 1)
	c.tr.end(sp)
	if err != nil {
		c.tr.end(root)
		return time.Since(t0), "", "headline: " + err.Error(), false
	}
	sp = c.tr.start("eval.Fig12HardwareVsScale", root, op, false)
	f12, err := eval.Fig12HardwareVsScale(n, fig12Scales, c.nproc)
	c.tr.end(sp)
	if err != nil {
		c.tr.end(root)
		return time.Since(t0), "", "fig12: " + err.Error(), false
	}
	sp = c.tr.start("eval.Fig15bRestorationVsScale", root, op, false)
	f15, err := eval.Fig15bRestorationVsScale(n, fig15bScales, c.nproc)
	c.tr.end(sp)
	if err != nil {
		c.tr.end(root)
		return time.Since(t0), "", "fig15b: " + err.Error(), false
	}
	sp = c.tr.start("eval.Fig16RestorationCDF", root, op, false)
	f16, err := eval.Fig16RestorationCDF(n, 1, c.nproc)
	c.tr.end(sp)
	lat = time.Since(t0)
	c.tr.end(root)
	if err != nil {
		return lat, "", "fig16: " + err.Error(), false
	}

	// Self-checks that hold at any seed: FlexWAN never needs more
	// hardware than a baseline it subsumes, capabilities are shares, and
	// every scheme that can plan 1× has one CDF point per fiber.
	if sav.TxSavedVs100G <= 0 || sav.TxSavedVsRADWAN < 0 || sav.TxSavedVs100G < sav.TxSavedVsRADWAN {
		return lat, "", fmt.Sprintf("headline savings out of order: %+v", sav), true
	}
	for scheme, txs := range f12.Transponders {
		if len(txs) != len(fig12Scales) {
			return lat, "", fmt.Sprintf("fig12 %s has %d points, want %d", scheme, len(txs), len(fig12Scales)), true
		}
	}
	if f12.MaxScale["FlexWAN"] < f12.MaxScale["RADWAN"] || f12.MaxScale["RADWAN"] < f12.MaxScale["100G-WAN"] {
		return lat, "", fmt.Sprintf("fig12 max scales out of order: %v", f12.MaxScale), true
	}
	for scheme, caps := range f15.Capability {
		for _, v := range caps {
			if v != -1 && (v < 0 || v > 1) {
				return lat, "", fmt.Sprintf("fig15b %s capability %v outside [0,1]", scheme, v), true
			}
		}
	}
	for scheme, cdf := range f16.Capability {
		if cdf.Len() != n.Optical.NumFibers() {
			return lat, "", fmt.Sprintf("fig16 %s has %d scenarios, want %d", scheme, cdf.Len(), n.Optical.NumFibers()), true
		}
	}
	sum := sha256.Sum256([]byte(sav.String() + f12.String() + f15.String() + f16.String()))
	return lat, fmt.Sprintf("%x", sum[:8]), "", false
}

func (w *figures) layerMetrics(c *runCtx) {
	head := c.tr.durationsMs("eval.HeadlineSavings")
	f12 := c.tr.durationsMs("eval.Fig12HardwareVsScale")
	f15 := c.tr.durationsMs("eval.Fig15bRestorationVsScale")
	f16 := c.tr.durationsMs("eval.Fig16RestorationCDF")
	c.layer["eval.headline_ms_p50"] = head.median()
	c.layer["eval.fig12_s_p50"] = f12.median() / 1e3
	c.layer["eval.fig15b_s_p50"] = f15.median() / 1e3
	c.layer["eval.fig16_s_p50"] = f16.median() / 1e3
	if total := c.tr.durationsMs("bench.figures_op").sum(); total > 0 {
		c.layer["eval.children_share_of_op"] = (head.sum() + f12.sum() + f15.sum() + f16.sum()) / total
	}
	c.layer["eval.skipped_networks"] = float64(w.skipped)
}

// probes replay the first op's network against the layers the eval calls
// reach only indirectly, one call per span.
func (w *figures) probes(c *runCtx) error {
	n := w.first
	if n.Optical == nil {
		return nil
	}
	grid := spectrum.DefaultGrid()
	timeUs := func(name string, fn func()) float64 {
		sp := c.tr.start(name, -1, -1, true)
		fn()
		return float64(c.tr.end(sp)) / 1e3
	}

	// plan.Solve per (scheme, scale) of Fig 12.
	var solveMs, allocKB sample
	var flexBase *plan.Result
	for _, cat := range eval.Schemes() {
		for _, scale := range fig12Scales {
			p := plan.Problem{Optical: n.Optical, IP: n.IP.Scale(scale), Catalog: cat, Grid: grid}
			mem0 := readMem()
			var res *plan.Result
			var err error
			solveMs = append(solveMs, timeUs("plan.Solve", func() { res, err = plan.Solve(p) })/1e3)
			allocKB = append(allocKB, float64(readMem().totalAlloc-mem0.totalAlloc)/1024)
			if err != nil {
				return err
			}
			if cat.Name == "FlexWAN" && scale == 1 {
				flexBase = res
			}
		}
	}
	c.layer["plan.solve_ms_p50"] = solveMs.median()
	c.layer["plan.solve_calls"] = float64(len(solveMs))
	c.layer["plan.alloc_kb_per_solve"] = allocKB.mean()

	// restore.Solve per single-fiber scenario on the FlexWAN 1× plan;
	// Without(cut) is the topology work inside each.
	base := restore.Problem{Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: grid, Base: flexBase}
	scenarios := restore.SingleFiberScenarios(n.Optical)
	var restoreUs, withoutUs sample
	affected, restored := 0, 0
	for _, sc := range scenarios {
		p := base
		p.Scenario = sc
		var res *restore.Result
		var err error
		restoreUs = append(restoreUs, timeUs("restore.Solve", func() { res, err = restore.Solve(p) }))
		if err != nil {
			return err
		}
		affected += res.AffectedGbps
		restored += res.RestoredGbps
		withoutUs = append(withoutUs, timeUs("topology.Without", func() { n.Optical.Without(sc.CutFibers...) }))
	}
	c.layer["restore.solve_us_p50"] = restoreUs.median()
	c.layer["restore.solve_us_p90"] = restoreUs.percentile(90)
	c.layer["restore.solve_calls"] = float64(len(restoreUs))
	c.layer["topology.without_us_p50"] = withoutUs.median()
	if affected > 0 {
		c.layer["restore.restored_share"] = float64(restored) / float64(affected)
	}

	// restore.SweepWithOptions per Fig 15b scale, one worker then nproc.
	var sweep1, sweepN sample
	for _, scale := range fig15bScales {
		scaled := n.Scale(scale)
		plan1, err := plan.Solve(plan.Problem{Optical: n.Optical, IP: scaled.IP, Catalog: transponder.SVT(), Grid: grid})
		if err != nil {
			return err
		}
		p := restore.Problem{Optical: n.Optical, IP: scaled.IP, Catalog: transponder.SVT(), Grid: grid, Base: plan1}
		for _, side := range []struct {
			workers int
			into    *sample
		}{{1, &sweep1}, {c.nproc, &sweepN}} {
			var err error
			us := timeUs(fmt.Sprintf("restore.SweepWithOptions/workers=%d", side.workers), func() {
				_, err = restore.SweepWithOptions(p, scenarios, restore.SweepOptions{Workers: side.workers})
			})
			if err != nil {
				return err
			}
			*side.into = append(*side.into, us/1e3)
		}
	}
	c.layer["restore.sweep_ms_p50"] = sweep1.median()
	if s := sweepN.sum(); s > 0 {
		c.layer["parallel.sweep_speedup"] = sweep1.sum() / s
	}

	// KSP and MinProvision per IP link; MinProvision per scheme too.
	var kspUs, provUs sample
	for _, l := range n.IP.Links {
		var paths []topology.Path
		kspUs = append(kspUs, timeUs("topology.KShortestPaths", func() { paths = n.Optical.KShortestPaths(l.A, l.B, plan.DefaultK) }))
		if len(paths) == 0 {
			continue
		}
		for _, cat := range eval.Schemes() {
			provUs = append(provUs, timeUs("transponder.MinProvision", func() { cat.MinProvision(l.DemandGbps, paths[0].LengthKm) }))
		}
	}
	c.layer["topology.ksp_us_p50"] = kspUs.median()
	c.layer["topology.ksp_calls"] = float64(len(kspUs))
	c.layer["transponder.minprovision_us_p50"] = provUs.median()

	// Replay the plan's wavelengths through a fresh allocator.
	alloc := spectrum.NewAllocator(grid)
	var findUs, allocUs sample
	for _, wl := range flexBase.Wavelengths {
		path := make([]spectrum.FiberID, len(wl.Path.Fibers))
		for i, f := range wl.Path.Fibers {
			path[i] = spectrum.FiberID(f)
		}
		findUs = append(findUs, timeUs("spectrum.Find", func() { _, _ = alloc.Find(path, wl.Interval.Count, spectrum.FirstFit) }))
		var err error
		allocUs = append(allocUs, timeUs("spectrum.AllocateExact", func() { err = alloc.AllocateExact(path, wl.Interval) }))
		if err != nil {
			return fmt.Errorf("replaying the plan's spectrum: %w", err)
		}
	}
	c.layer["spectrum.find_us_p50"] = findUs.median()
	c.layer["spectrum.allocate_us_p50"] = allocUs.median()
	return nil
}
