package restore

import (
	"fmt"
	"slices"
	"sort"

	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// The per-scenario set-up the shared base state replaced, kept verbatim
// as its differential oracle: every scenario scans the whole plan for the
// wavelengths the cut touches, replays every surviving wavelength into a
// fresh allocator, finds link endpoints by scanning the IP links, and
// sorts each candidate path's feasible modes itself. replaySolve is the
// heuristic Solve that ran on top of them.

// affected returns the indices in the base plan of the wavelengths that
// cross a cut fiber, ascending. Cut sets are a handful of fibers, so each
// hop is checked against the list itself.
func affected(base *plan.Result, cut []string) (failed []int) {
	for i := range base.Wavelengths {
		for _, f := range base.Wavelengths[i].Path.Fibers {
			if slices.Contains(cut, f) {
				failed = append(failed, i)
				break
			}
		}
	}
	return failed
}

// survivorAllocator rebuilds per-fiber occupancy from the surviving
// wavelengths only.
func survivorAllocator(grid spectrum.Grid, base *plan.Result, failed []int) (*spectrum.Allocator, error) {
	a := spectrum.NewAllocator(grid)
	var fibers []spectrum.FiberID
	for i := range base.Wavelengths {
		if len(failed) > 0 && failed[0] == i {
			failed = failed[1:]
			continue
		}
		w := &base.Wavelengths[i]
		fibers = fiberIDs(fibers, w.Path.Fibers)
		if err := a.AllocateExact(fibers, w.Interval); err != nil {
			return nil, fmt.Errorf("restore: base plan inconsistent: %w", err)
		}
	}
	return a, nil
}

// fiberIDs appends the fibers named to buf[:0] as allocator keys.
func fiberIDs(buf []spectrum.FiberID, names []string) []spectrum.FiberID {
	buf = buf[:0]
	for _, name := range names {
		buf = append(buf, spectrum.FiberID(name))
	}
	return buf
}

// linkEnds returns the sites an IP link connects.
func linkEnds(ip *topology.IPTopology, id string) (a, b topology.NodeID, err error) {
	for _, l := range ip.Links {
		if l.ID == id {
			return l.A, l.B, nil
		}
	}
	return "", "", fmt.Errorf("restore: affected link %s missing from IP topology", id)
}

func replaySolve(p Problem) (*Result, error) {
	if p.Base == nil {
		return nil, fmt.Errorf("restore: nil base plan")
	}
	failed := affected(p.Base, p.Scenario.CutFibers)
	res := &Result{
		Scenario: p.Scenario,
		PerLink:  make(map[string][2]int),
	}
	if len(failed) == 0 {
		return res, nil
	}
	alloc, err := survivorAllocator(p.Grid, p.Base, failed)
	if err != nil {
		return nil, err
	}
	post := p.Optical.Without(p.Scenario.CutFibers...)

	type linkState struct {
		id           string
		affectedGbps int
		spares       int
		originals    []int
	}
	byLink := make(map[string]*linkState)
	var order []*linkState
	for _, i := range failed {
		w := &p.Base.Wavelengths[i]
		ls, ok := byLink[w.LinkID]
		if !ok {
			ls = &linkState{id: w.LinkID}
			byLink[w.LinkID] = ls
			order = append(order, ls)
		}
		ls.affectedGbps += w.Mode.DataRateGbps
		ls.spares++
		ls.originals = append(ls.originals, i)
	}
	for _, ls := range order {
		ls.spares += p.ExtraSpares[ls.id]
		res.AffectedGbps += ls.affectedGbps
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].affectedGbps != order[j].affectedGbps {
			return order[i].affectedGbps > order[j].affectedGbps
		}
		return order[i].id < order[j].id
	})

	for _, ls := range order {
		a, b, err := linkEnds(p.IP, ls.id)
		if err != nil {
			return nil, err
		}
		var cands []replayCandidate
		paths := post.KShortestPaths(a, b, p.k())
		for i := range paths {
			cands = append(cands, replayCandidate{path: &paths[i]})
		}
		remaining := ls.affectedGbps
		restored := 0
		oi := 0
		for remaining > 0 && ls.spares > 0 && len(cands) > 0 {
			r, ok := replayRestoreOne(p, alloc, ls.id, cands, remaining)
			if !ok {
				break
			}
			if oi < len(ls.originals) {
				r.Original = &p.Base.Wavelengths[ls.originals[oi]]
				oi++
			}
			res.Restored = append(res.Restored, r)
			remaining -= r.Mode.DataRateGbps
			restored += r.Mode.DataRateGbps
			ls.spares--
		}
		res.RestoredGbps += restored
		res.PerLink[ls.id] = [2]int{ls.affectedGbps, restored}
	}
	return res, nil
}

type replayCandidate struct {
	path   *topology.Path
	fibers []spectrum.FiberID
	modes  []*transponder.Mode
}

func replayRestoreOne(p Problem, alloc *spectrum.Allocator, linkID string, cands []replayCandidate, remainingGbps int) (Restored, bool) {
	for i := range cands {
		c := &cands[i]
		if c.fibers == nil {
			c.fibers = fiberIDs(nil, c.path.Fibers)
			c.modes = p.Catalog.FeasibleModes(c.path.LengthKm)
			sort.SliceStable(c.modes, func(i, j int) bool {
				if c.modes[i].DataRateGbps != c.modes[j].DataRateGbps {
					return c.modes[i].DataRateGbps > c.modes[j].DataRateGbps
				}
				return c.modes[i].SpacingGHz < c.modes[j].SpacingGHz
			})
		}
		for _, mode := range c.modes {
			if mode.DataRateGbps > remainingGbps {
				continue
			}
			pixels := mode.Pixels(p.Grid)
			if pixels > p.Grid.Pixels {
				continue
			}
			iv, err := alloc.Find(c.fibers, pixels, p.Fit)
			if err != nil || alloc.AllocateExact(c.fibers, iv) != nil {
				continue
			}
			return Restored{LinkID: linkID, Path: c.path, Mode: mode, Interval: iv}, true
		}
	}
	return Restored{}, false
}
