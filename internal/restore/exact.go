package restore

import (
	"fmt"
	"sort"

	"flexwan/internal/plan"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// SolveExact builds the §8 restoration formulation as a MIP and solves it
// with the internal branch-and-bound. As in plan.SolveExact, fixing a
// restored wavelength's (path, format, starting pixel) determines its
// slot occupancy, so constraints (10)–(13) hold by construction; the rows
// are (7) capacity caps, (8) spare-transponder caps, and (9) spare-slot
// conflicts. Placements overlapping spectrum still held by surviving
// wavelengths are never generated — that is constraint (9)'s φ_w.
func SolveExact(p Problem, opts solver.Options) (*Result, error) {
	st, err := newBaseState(p)
	if err != nil {
		return nil, err
	}
	failed, alloc, err := st.cut(p.Scenario, true)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Scenario: p.Scenario,
		PerLink:  make(map[string][2]int),
	}
	if len(failed) == 0 {
		return res, nil
	}
	post := p.Optical.Without(p.Scenario.CutFibers...)

	type linkState struct {
		id           string
		affectedGbps int
		spares       int
		originals    []*plan.Wavelength // the link's failed wavelengths, in the base plan
	}
	byLink := make(map[string]*linkState)
	var linkOrder []string
	for _, i := range failed {
		w := &p.Base.Wavelengths[i]
		ls, ok := byLink[w.LinkID]
		if !ok {
			ls = &linkState{id: w.LinkID}
			byLink[w.LinkID] = ls
			linkOrder = append(linkOrder, w.LinkID)
		}
		ls.affectedGbps += w.Mode.DataRateGbps
		ls.spares++
		ls.originals = append(ls.originals, w)
	}
	sort.Strings(linkOrder)
	for _, id := range linkOrder {
		ls := byLink[id]
		ls.spares += p.ExtraSpares[id]
		res.AffectedGbps += ls.affectedGbps
	}

	// The model is unnamed, like plan.SolveExact's: the solver's diagnostics
	// call a column x<id> and a row r<index>.
	m := solver.NewModel("flexwan-restoration", solver.Maximize)
	type gVar struct {
		linkID string
		path   *topology.Path    // in the post-failure K shortest paths
		mode   *transponder.Mode // in the catalog
		startQ int
		pixels int
		id     solver.VarID
	}
	var gammas []gVar
	slotUsers := make(map[string][][]solver.VarID)

	for _, id := range linkOrder {
		ls := byLink[id]
		a, b, err := st.endpoints(id)
		if err != nil {
			return nil, err
		}
		paths := post.KShortestPaths(a, b, p.k())
		var capTerms, cntTerms []solver.Term
		for pi := range paths {
			path := &paths[pi]
			spare := make([]*spectrum.Map, len(path.Fibers))
			for i, f := range path.Fibers {
				spare[i] = alloc.FiberMap(spectrum.FiberID(f))
			}
			for _, mode := range p.Catalog.FeasibleModes(path.LengthKm) {
				pixels := mode.Pixels(p.Grid)
				if pixels > p.Grid.Pixels || mode.DataRateGbps > ls.affectedGbps {
					continue
				}
				for q := 0; q+pixels <= p.Grid.Pixels; q++ {
					iv := spectrum.Interval{Start: q, Count: pixels}
					// Constraint (9): the interval must be spare on every
					// fiber after the survivors keep their spectrum.
					free := true
					for _, m := range spare {
						if !m.CanPlace(iv) {
							free = false
							break
						}
					}
					if !free {
						continue
					}
					gid := m.AddBinVar("", float64(mode.DataRateGbps))
					gammas = append(gammas, gVar{linkID: id, path: path, mode: mode, startQ: q, pixels: pixels, id: gid})
					capTerms = append(capTerms, solver.Term{Var: gid, Coef: float64(mode.DataRateGbps)})
					cntTerms = append(cntTerms, solver.Term{Var: gid, Coef: 1})
					for _, f := range path.Fibers {
						rows, ok := slotUsers[f]
						if !ok {
							rows = make([][]solver.VarID, p.Grid.Pixels)
							slotUsers[f] = rows
						}
						for w := q; w < q+pixels; w++ {
							rows[w] = append(rows[w], gid)
						}
					}
					if m.NumVars() > opts.MaxBuildVars() {
						return nil, fmt.Errorf("restore: exact MIP exceeds %d variables (Options.MaxVars); use the heuristic Solve or raise the cap", opts.MaxBuildVars())
					}
				}
			}
		}
		if len(capTerms) == 0 {
			res.PerLink[id] = [2]int{ls.affectedGbps, 0}
			continue
		}
		if err := m.AddConstraint("", capTerms, solver.LE, float64(ls.affectedGbps)); err != nil {
			return nil, err
		}
		if err := m.AddConstraint("", cntTerms, solver.LE, float64(ls.spares)); err != nil {
			return nil, err
		}
	}

	if len(gammas) == 0 {
		for _, id := range linkOrder {
			res.PerLink[id] = [2]int{byLink[id].affectedGbps, 0}
		}
		return res, nil
	}

	fibers := make([]string, 0, len(slotUsers))
	for f := range slotUsers {
		fibers = append(fibers, f)
	}
	sort.Strings(fibers)
	var terms []solver.Term // reused row buffer; AddConstraint copies
	for _, f := range fibers {
		for _, users := range slotUsers[f] {
			if len(users) < 2 {
				continue
			}
			terms = terms[:0]
			for _, gid := range users {
				terms = append(terms, solver.Term{Var: gid, Coef: 1})
			}
			if err := m.AddConstraint("", terms, solver.LE, 1); err != nil {
				return nil, err
			}
		}
	}

	sol, err := m.SolveWithOptions(opts)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	res.Solver = plan.NewSolveStats(sol)
	if sol.Status == solver.Infeasible || sol.Status == solver.Unbounded {
		return nil, fmt.Errorf("restore: exact MIP %v — formulation bug (0 restoration is always feasible)", sol.Status)
	}
	if (sol.Status == solver.LimitReached || sol.Status == solver.IterLimit) && len(sol.Values) == 0 {
		return nil, fmt.Errorf("restore: solve limit (%s) reached with no incumbent", sol.Status)
	}

	restoredPerLink := make(map[string]int)
	nextOriginal := make(map[string]int)
	for _, g := range gammas {
		if sol.IntValue(g.id) != 1 {
			continue
		}
		iv := spectrum.Interval{Start: g.startQ, Count: g.pixels}
		if err := alloc.AllocatePath(g.path, iv); err != nil {
			return nil, fmt.Errorf("restore: MIP solution violates spectrum constraints: %w", err)
		}
		r := Restored{LinkID: g.linkID, Path: g.path, Mode: g.mode, Interval: iv}
		ls := byLink[g.linkID]
		if i := nextOriginal[g.linkID]; i < len(ls.originals) {
			r.Original = ls.originals[i]
			nextOriginal[g.linkID] = i + 1
		}
		res.Restored = append(res.Restored, r)
		restoredPerLink[g.linkID] += g.mode.DataRateGbps
		res.RestoredGbps += g.mode.DataRateGbps
	}
	for _, id := range linkOrder {
		res.PerLink[id] = [2]int{byLink[id].affectedGbps, restoredPerLink[id]}
	}
	return res, nil
}
