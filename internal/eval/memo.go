package eval

import (
	"slices"
	"sync"
	"sync/atomic"

	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// The figures of one network share their work. A (scheme, scale) plan is
// the same whichever figure asks for it: Fig 12 plans 1× to 8×, the
// headline and Fig 14 read 1×, Fig 15(b) restores 1× to 5× and Fig 16
// restores 1× again. So is the spare-free sweep of every single-fiber cut
// on such a plan. memo holds both for the most recent network. Each is
// computed once, behind a sync.Once, by whichever figure asks first, and
// every later figure on that network reads it. A figure on another network
// starts the memo over.
var memo struct {
	mu  sync.Mutex
	cur *network
}

// planSolves counts the plans the memo has solved: the work the figures
// cost, which the tests pin.
var planSolves atomic.Int64

// network is the memo of one network. It is keyed by the optical topology,
// its fiber numbering (an in-place AddFiber gives the topology a new one)
// and a copy of the unscaled IP links, which the points are planned on.
type network struct {
	optical *topology.Optical
	num     *topology.Numbering
	ip      *topology.IPTopology

	scenarios func() []restore.Scenario // every single-fiber cut, built once

	mu     sync.Mutex
	points map[pointKey]*point
}

// pointKey names a catalog by its name and its Modes array, so that a copy
// with other reaches (WithReaches) or a hand-built catalog under a known
// name is a point of its own, and a scale.
type pointKey struct {
	catalog string
	modes   *transponder.Mode
	nmodes  int
	scale   float64
}

// point is one (catalog, scale) plan of a network and the sweep on it.
type point struct {
	once sync.Once
	cat  transponder.Catalog
	ip   *topology.IPTopology // the scaled IP layer
	cost cost
	// plan is kept only when the plan is feasible: the sweeps, Fig 16's
	// spares and the per-wavelength figures read it. An infeasible plan is
	// read only by figures that show what it did place (Fig 14, Fig 15(a)),
	// and those plan it again rather than have every infeasible Fig 12
	// point kept.
	plan *plan.Result
	err  error

	sweepOnce sync.Once
	sweep     sweep
	sweepErr  error
}

// cost is what the planning figures read of a plan.
type cost struct {
	feasible     bool
	transponders int
	spectrumGHz  float64
	spectralEff  float64 // mean bps/Hz over the wavelengths
}

// sweep is what the restoration figures read of a spare-free sweep of every
// single-fiber cut; restore computes both numbers.
type sweep struct {
	mean         float64
	capabilities []float64
}

// networkOf returns the memo of n, starting a new one when the memo holds
// another network.
func networkOf(n workload.Network) *network {
	var num *topology.Numbering
	if n.Optical != nil {
		num = n.Optical.Numbering()
	}
	var links []topology.IPLink
	if n.IP != nil {
		links = n.IP.Links
	}
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if nw := memo.cur; nw != nil && nw.optical == n.Optical && nw.num == num && slices.Equal(nw.ip.Links, links) {
		return nw
	}
	nw := &network{
		optical: n.Optical,
		num:     num,
		ip:      &topology.IPTopology{Links: slices.Clone(links)},
		points:  make(map[pointKey]*point),
	}
	nw.scenarios = sync.OnceValue(func() []restore.Scenario { return restore.SingleFiberScenarios(nw.optical) })
	memo.cur = nw
	return nw
}

// point returns the network's (catalog, scale) point, planned: its cost,
// or its err.
func (nw *network) point(cat transponder.Catalog, scale float64) *point {
	key := pointKey{catalog: cat.Name, nmodes: len(cat.Modes), scale: scale}
	if len(cat.Modes) > 0 {
		key.modes = &cat.Modes[0]
	}
	nw.mu.Lock()
	pt, ok := nw.points[key]
	if !ok {
		pt = &point{cat: cat}
		nw.points[key] = pt
	}
	nw.mu.Unlock()
	pt.once.Do(func() {
		pt.ip = nw.ip.Scale(scale)
		res, err := nw.solve(pt)
		if err != nil {
			pt.err = err
			return
		}
		pt.cost = cost{
			feasible:     res.Feasible(),
			transponders: res.Transponders(),
			spectrumGHz:  res.SpectrumGHz(),
			spectralEff:  res.MeanSpectralEfficiency(),
		}
		if pt.cost.feasible {
			pt.plan = res
		}
	})
	return pt
}

// solve plans the point.
func (nw *network) solve(pt *point) (*plan.Result, error) {
	planSolves.Add(1)
	return planScheme(workload.Network{Optical: nw.optical, IP: pt.ip}, pt.cat)
}

// plan returns the point's plan: the kept one, or a new solve of an
// infeasible one. Callers only read it.
func (nw *network) plan(pt *point) (*plan.Result, error) {
	if pt.err != nil || pt.plan != nil {
		return pt.plan, pt.err
	}
	return nw.solve(pt)
}

// sweep restores every single-fiber cut on the feasible point's plan with
// no extra spares, workers scenarios at a time; a point that failed to
// plan returns its error.
func (nw *network) sweep(pt *point, workers int) (sweep, error) {
	if pt.err != nil {
		return sweep{}, pt.err
	}
	pt.sweepOnce.Do(func() {
		s, err := restore.SweepWithOptions(restore.Problem{
			Optical: nw.optical, IP: pt.ip, Catalog: pt.cat,
			Grid: spectrum.DefaultGrid(), Base: pt.plan,
		}, nw.scenarios(), restore.SweepOptions{Workers: workers})
		pt.sweep, pt.sweepErr = sweep{s.MeanCapability(), s.Capabilities()}, err
	})
	return pt.sweep, pt.sweepErr
}
