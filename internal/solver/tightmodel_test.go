package solver

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// tightPlanningModel restates the planning MIP plan.SolveExact builds: the
// model presolve reduces planningModel to, emitted directly. Per (link,
// path) the feasible modes fall into classes of equal pixels, capacity
// coefficient min(rate, demand) and objective, taken in the order of each
// class's first mode, with one binary per (class, start pixel) named after
// that mode. The rows are a capacity row per link, then, fiber by fiber in
// name order, the conflict rows no other row contains. The builder finds
// those with bitsets and an interval sweep; this restatement compares every
// fiber's set of carried paths with every other fiber's, and every pixel's
// users with every other pixel's on the fiber. Same instances and links
// argument as planningModel.
func tightPlanningModel(t testing.TB, seed int64, pixels, k, links int) *Model {
	t.Helper()
	n := workload.TBackbone(seed).Scale(0.02)
	grid := spectrum.Grid{PixelGHz: 12.5, Pixels: pixels}
	cat := transponder.RADWAN()
	m := NewModel("planning", Minimize)
	ipLinks := n.IP.Links
	if links > 0 && links < len(ipLinks) {
		ipLinks = ipLinks[:links]
	}
	type class struct {
		pixels    int
		coef, obj float64
		prefix    string
		base      VarID
	}
	type carried struct {
		fibers  []string
		classes []class
	}
	var paths []carried // paths with at least one column, in column order
	for _, link := range ipLinks {
		var linkTerms []Term
		for pi, path := range n.Optical.KShortestPaths(link.A, link.B, k) {
			var classes []class
			for _, mode := range cat.FeasibleModes(path.LengthKm) {
				c := class{
					pixels: mode.Pixels(grid),
					coef:   math.Min(float64(mode.DataRateGbps), float64(link.DemandGbps)),
					obj:    1 + 0.001*mode.SpacingGHz,
				}
				if c.pixels > pixels || slices.ContainsFunc(classes, func(d class) bool {
					return d.pixels == c.pixels && d.coef == c.coef && d.obj == c.obj
				}) {
					continue
				}
				c.prefix = "g[" + link.ID + "," + strconv.Itoa(pi) + "," + mode.String() + ","
				classes = append(classes, c)
			}
			for i := range classes {
				c := &classes[i]
				c.base = VarID(m.NumVars())
				for q := 0; q+c.pixels <= pixels; q++ {
					id := m.AddBinVar(c.prefix+strconv.Itoa(q)+"]", c.obj)
					linkTerms = append(linkTerms, Term{Var: id, Coef: c.coef})
				}
			}
			if len(classes) > 0 {
				paths = append(paths, carried{fibers: path.Fibers, classes: classes})
			}
		}
		if len(linkTerms) == 0 {
			t.Fatalf("seed %d: no feasible (path, mode) for link %s", seed, link.ID)
		}
		mustCon(t, m, "cap["+link.ID+"]", linkTerms, GE, float64(link.DemandGbps))
	}

	carriedBy := make(map[string][]int) // fiber → the paths holding it, ascending
	for i, p := range paths {
		for _, f := range p.fibers {
			carriedBy[f] = append(carriedBy[f], i)
		}
	}
	fibers := make([]string, 0, len(carriedBy))
	for f := range carriedBy {
		fibers = append(fibers, f)
	}
	sort.Strings(fibers)
	for fi, f := range fibers {
		dominated := false
		for gi, g := range fibers {
			if gi != fi && within(carriedBy[f], carriedBy[g]) &&
				(gi < fi || !slices.Equal(carriedBy[f], carriedBy[g])) {
				dominated = true
			}
		}
		if dominated {
			continue
		}
		users := make([][]VarID, pixels)
		for w := range users {
			for _, i := range carriedBy[f] {
				for _, c := range paths[i].classes {
					for q := max(0, w-c.pixels+1); q <= min(w, pixels-c.pixels); q++ {
						users[w] = append(users[w], c.base+VarID(q))
					}
				}
			}
		}
		for w, u := range users {
			keep := len(u) >= 2
			for v, other := range users {
				if v != w && within(u, other) && (v > w || !slices.Equal(u, other)) {
					keep = false
				}
			}
			if !keep {
				continue
			}
			terms := make([]Term, len(u))
			for i, id := range u {
				terms[i] = Term{Var: id, Coef: 1}
			}
			mustCon(t, m, "slot["+f+","+strconv.Itoa(w)+"]", terms, LE, 1)
		}
	}
	return m
}

// within reports whether the ascending list a is a subset of the ascending
// list b.
func within[T cmp.Ordered](a, b []T) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}

// trackingInstances are the planning instances TestPlanningModelTracksPlanSolveExact
// holds the restatement to plan.SolveExact on (seed, pixels, k, links). On
// the last, two fibers carry the same set of paths.
var trackingInstances = [][4]int{{1, 16, 1, 12}, {2, 24, 2, 12}, {5, 32, 1, 32}, {1, 32, 1, 24}, {1, 24, 2, 16}}

// TestTightModelIsPresolvedRaw holds the tight planning model to what
// presolve makes of the raw one (planningModel) on the tracking instances.
// Its columns are presolve's surviving columns — the duplicate groups'
// representatives — one for one, with the same name, objective and capped
// capacity coefficient. Every tight row is a raw row over the same columns
// mapped through the groups, and every raw row's columns, so mapped, lie
// inside some tight row's: the tight model drops only rows a kept ≤ 1 row
// implies. (Seed 5 with 32 links has more rows than presolve's
// dominated-row sweep takes, so there presolve keeps rows the tight model
// drops; the containment still holds.)
func TestTightModelIsPresolvedRaw(t *testing.T) {
	for _, in := range trackingInstances {
		seed, pixels, k, links := int64(in[0]), in[1], in[2], in[3]
		label := fmt.Sprintf("seed %d pixels %d k %d links %d", seed, pixels, k, links)
		raw, tight := planningModel(t, seed, pixels, k, links), tightPlanningModel(t, seed, pixels, k, links)
		p := raw.presolve(nil)
		if p.infeasible || p.reduced == raw || slices.Contains(p.fixed, true) {
			t.Fatalf("%s: presolve infeasible %v, reduced nothing %v, fixed %v", label, p.infeasible, p.reduced == raw, p.fixed)
		}
		red := p.reduced
		if red.NumVars() != tight.NumVars() {
			t.Fatalf("%s: %d tight columns, presolve keeps %d", label, tight.NumVars(), red.NumVars())
		}
		capCoef := func(m *Model) map[VarID]float64 {
			coef := make(map[VarID]float64)
			for _, c := range m.cons {
				if c.rel == GE {
					for _, term := range c.terms {
						coef[term.Var] = term.Coef
					}
				}
			}
			return coef
		}
		redCoef, tightCoef := capCoef(red), capCoef(tight)
		for j := range tight.vars {
			got, want := tight.vars[j], red.vars[j]
			if got.name != want.name || got.obj != want.obj || tightCoef[VarID(j)] != redCoef[VarID(j)] {
				t.Fatalf("%s: tight column %d is %s (obj %v, coef %v); presolve keeps %s (obj %v, coef %v)",
					label, j, got.name, got.obj, tightCoef[VarID(j)], want.name, want.obj, redCoef[VarID(j)])
			}
		}
		// column maps a raw row's terms to the tight columns they become.
		column := func(terms []Term) []VarID {
			var out []VarID
			for _, term := range terms {
				v := int(term.Var)
				if g := p.grpOf[v]; g >= 0 {
					v = p.groups[g][0]
				}
				out = append(out, VarID(p.newID[v]))
			}
			slices.Sort(out)
			return slices.Compact(out)
		}
		support := func(terms []Term) []VarID {
			out := make([]VarID, len(terms))
			for i, term := range terms {
				out[i] = term.Var
			}
			slices.Sort(out)
			return out
		}
		rawRow := make(map[string][]Term, len(raw.cons))
		for _, c := range raw.cons {
			rawRow[c.name] = c.terms
		}
		tightRows := make([][]VarID, len(tight.cons))
		for i, c := range tight.cons {
			terms, ok := rawRow[c.name]
			tightRows[i] = support(c.terms)
			if !ok || !reflect.DeepEqual(column(terms), tightRows[i]) {
				t.Fatalf("%s: tight row %s is not a raw row over the same columns", label, c.name)
			}
		}
		for _, c := range raw.cons {
			mapped := column(c.terms)
			if !slices.ContainsFunc(tightRows, func(row []VarID) bool { return within(mapped, row) }) {
				t.Fatalf("%s: raw row %s lies inside no tight row", label, c.name)
			}
		}
		t.Logf("%s: raw %d×%d, presolved %d×%d, tight %d×%d", label,
			raw.NumConstraints(), raw.NumVars(), red.NumConstraints(), red.NumVars(), tight.NumConstraints(), tight.NumVars())
	}
}

// TestPresolveIdentityPath: on a model no presolve pass can reduce — the
// tight planning models — presolve hands back the model itself, and the
// solve is the solve with presolve off: the same values, objective, nodes
// and pivots, with nothing reported removed.
func TestPresolveIdentityPath(t *testing.T) {
	for _, in := range trackingInstances {
		seed, pixels, k, links := int64(in[0]), in[1], in[2], in[3]
		label := fmt.Sprintf("seed %d pixels %d k %d links %d", seed, pixels, k, links)
		m := tightPlanningModel(t, seed, pixels, k, links)
		if p := m.presolve(nil); p.infeasible || p.reduced != m {
			t.Fatalf("%s: presolve reduced a model with nothing to remove", label)
		}
		on := mustSolveOpts(t, m, Options{Workers: 1, noStart: true})
		off := mustSolveOpts(t, m, Options{Workers: 1, noStart: true, noPresolve: true})
		if on.Status != Optimal || !reflect.DeepEqual(on.Values, off.Values) || on.Objective != off.Objective ||
			on.Nodes != off.Nodes || on.SimplexIters != off.SimplexIters {
			t.Errorf("%s: presolve on %v at %v after %d nodes and %d pivots; off %v at %v after %d and %d",
				label, on.Status, on.Objective, on.Nodes, on.SimplexIters, off.Status, off.Objective, off.Nodes, off.SimplexIters)
		}
		if on.PresolveRows != 0 || on.PresolveCols != 0 {
			t.Errorf("%s: presolve reports %d rows and %d columns removed, want 0/0", label, on.PresolveRows, on.PresolveCols)
		}
	}
}
