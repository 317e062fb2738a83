package solver

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// tightPlanningModel restates the planning MIP plan.SolveExact builds: the
// model planningModel is, reduced at the source. Per (link, path) the
// feasible modes fall into classes of equal pixels, capacity coefficient
// min(rate, demand) and objective, taken in the order of each class's first
// mode, with one binary per (class, start pixel) named after that mode —
// unless an earlier path of the link holds the same kept fibers and has a
// matching class, whose columns the class then shares. The rows are a
// capacity row per link, then, fiber by fiber in name order, the conflict
// rows no other row contains. The builder finds those with bitsets
// and an interval sweep; this restatement compares every fiber's set of
// carried paths with every other fiber's, and every pixel's users with
// every other pixel's on the fiber. Same instances and links argument as
// planningModel.
func tightPlanningModel(t testing.TB, seed int64, pixels, k, links int) *Model {
	t.Helper()
	n := workload.TBackbone(seed).Scale(0.02)
	ipLinks := n.IP.Links
	if links > 0 && links < len(ipLinks) {
		ipLinks = ipLinks[:links]
	}
	return tightModelOf(t, n, ipLinks, pixels, k)
}

// tightModelOf is tightPlanningModel over the IP links ipLinks of n.
func tightModelOf(t testing.TB, n workload.Network, ipLinks []topology.IPLink, pixels, k int) *Model {
	t.Helper()
	grid := spectrum.Grid{PixelGHz: 12.5, Pixels: pixels}
	cat := transponder.RADWAN()
	m := NewModel("planning", Minimize)
	type class struct {
		pixels    int
		coef, obj float64
		prefix    string
		base      VarID
		owner     *class // the earlier path's class whose columns it shares
	}
	type carried struct {
		link    int
		fibers  []string
		classes []*class
	}
	var paths []carried // paths with at least one column, link by link
	for li, link := range ipLinks {
		for pi, path := range n.Optical.KShortestPaths(link.A, link.B, k) {
			var classes []*class
			for _, mode := range cat.FeasibleModes(path.LengthKm) {
				c := &class{
					pixels: mode.Pixels(grid),
					coef:   math.Min(float64(mode.DataRateGbps), float64(link.DemandGbps)),
					obj:    1 + 0.001*mode.SpacingGHz,
				}
				if c.pixels > pixels || slices.ContainsFunc(classes, func(d *class) bool {
					return d.pixels == c.pixels && d.coef == c.coef && d.obj == c.obj
				}) {
					continue
				}
				c.prefix = "g[" + link.ID + "," + strconv.Itoa(pi) + "," + mode.String() + ","
				classes = append(classes, c)
			}
			if len(classes) > 0 {
				paths = append(paths, carried{link: li, fibers: path.Fibers, classes: classes})
			}
		}
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
	var kept []string
	for fi, f := range fibers {
		dominated := false
		for gi, g := range fibers {
			if gi != fi && within(carriedBy[f], carriedBy[g]) &&
				(gi < fi || !slices.Equal(carriedBy[f], carriedBy[g])) {
				dominated = true
			}
		}
		if !dominated {
			kept = append(kept, f)
		}
	}

	// A class shares the columns of the first matching class on an earlier
	// path of its link that holds the same kept fibers.
	keptOn := func(p carried) []string {
		var on []string
		for _, f := range p.fibers {
			if slices.Contains(kept, f) {
				on = append(on, f)
			}
		}
		slices.Sort(on)
		return on
	}
	for i, p := range paths {
		for _, c := range p.classes {
			for j := 0; j < i && c.owner == nil; j++ {
				if paths[j].link != p.link || !slices.Equal(keptOn(paths[j]), keptOn(p)) {
					continue
				}
				for _, o := range paths[j].classes {
					if o.owner == nil && o.pixels == c.pixels && o.coef == c.coef && o.obj == c.obj {
						c.owner = o
						break
					}
				}
			}
		}
	}

	for li, link := range ipLinks {
		var linkTerms []Term
		for _, p := range paths {
			if p.link != li {
				continue
			}
			for _, c := range p.classes {
				if c.owner != nil {
					c.base = c.owner.base
					continue
				}
				c.base = VarID(m.NumVars())
				for q := 0; q+c.pixels <= pixels; q++ {
					id := m.AddBinVar(c.prefix+strconv.Itoa(q)+"]", c.obj)
					linkTerms = append(linkTerms, Term{Var: id, Coef: c.coef})
				}
			}
		}
		if len(linkTerms) == 0 {
			t.Fatalf("no feasible (path, mode) for link %s", link.ID)
		}
		mustCon(t, m, "cap["+link.ID+"]", linkTerms, GE, float64(link.DemandGbps))
	}

	for _, f := range kept {
		users := make([][]VarID, pixels)
		for w := range users {
			for _, i := range carriedBy[f] {
				for _, c := range paths[i].classes {
					for q := max(0, w-c.pixels+1); q <= min(w, pixels-c.pixels) && c.owner == nil; q++ {
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

// TestTightModelIsPresolvedRaw holds the tight planning model to the raw one
// (planningModel) reduced on the test side, on the tracking instances: the
// capacity coefficients capped at their demands, then the duplicate columns
// of the capped raw model merged into their first member. The tight
// model's columns are those first members, one for one, with the same
// name, objective and capped capacity coefficient. Every tight row is a raw
// row over the same columns mapped through the groups, and every raw row's
// columns, so mapped, lie inside some tight row's: the tight model drops
// only rows a kept ≤ 1 row implies.
func TestTightModelIsPresolvedRaw(t *testing.T) {
	for _, in := range trackingInstances {
		seed, pixels, k, links := int64(in[0]), in[1], in[2], in[3]
		label := fmt.Sprintf("seed %d pixels %d k %d links %d", seed, pixels, k, links)
		raw, tight := capped(planningModel(t, seed, pixels, k, links)), tightPlanningModel(t, seed, pixels, k, links)
		groups := duplicateColumns(raw)
		if len(groups) == 0 {
			t.Fatalf("%s: the raw model has no duplicate columns", label)
		}
		// newID maps a raw column to the tight column it becomes: its
		// group's first member's rank among the columns that stay.
		rep := make([]VarID, raw.NumVars())
		for j := range rep {
			rep[j] = VarID(j)
		}
		for _, g := range groups {
			for _, v := range g[1:] {
				rep[v] = g[0]
			}
		}
		newID, kept := make([]VarID, raw.NumVars()), VarID(0)
		for j := range newID {
			if rep[j] == VarID(j) {
				newID[j] = kept
				kept++
			}
		}
		if int(kept) != tight.NumVars() {
			t.Fatalf("%s: %d tight columns, the reduced raw model keeps %d", label, tight.NumVars(), kept)
		}
		rawCoef, tightCoef := capCoef(raw), capCoef(tight)
		for j := range raw.vars {
			if rep[j] != VarID(j) {
				continue
			}
			got, want := tight.vars[newID[j]], raw.vars[j]
			if got.name != want.name || got.obj != want.obj || tightCoef[newID[j]] != rawCoef[VarID(j)] {
				t.Fatalf("%s: tight column %d is %s (obj %v, coef %v); the reduced raw model keeps %s (obj %v, coef %v)",
					label, newID[j], got.name, got.obj, tightCoef[newID[j]], want.name, want.obj, rawCoef[VarID(j)])
			}
		}
		// column maps a raw row's terms to the tight columns they become.
		column := func(terms []Term) []VarID {
			out := make([]VarID, len(terms))
			for i, term := range terms {
				out[i] = newID[rep[term.Var]]
			}
			slices.Sort(out)
			return slices.Compact(out)
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
		t.Logf("%s: raw %d×%d, tight %d×%d", label, raw.NumConstraints(), raw.NumVars(), tight.NumConstraints(), tight.NumVars())
	}
}

// TestPlanModelIrreducible guards what the solver now relies on: the
// planning model arrives with nothing left to reduce. On the tracking
// instances and on 50 instances shaped like the plan-exact benchmark's
// stream (32 pixels, 24 IP links drawn at random, k = 1 and 3), the tight
// planning model has no two columns alike, no ≤ 1 row inside another, and
// no capacity coefficient above its demand. The check must reject the raw
// model of every tracking instance, or it checks nothing.
func TestPlanModelIrreducible(t *testing.T) {
	for _, in := range trackingInstances {
		seed, pixels, k, links := int64(in[0]), in[1], in[2], in[3]
		label := fmt.Sprintf("seed %d pixels %d k %d links %d", seed, pixels, k, links)
		if err := irreducible(tightPlanningModel(t, seed, pixels, k, links)); err != nil {
			t.Errorf("%s: %v", label, err)
		}
		if irreducible(planningModel(t, seed, pixels, k, links)) == nil {
			t.Errorf("%s: the raw model passes as irreducible", label)
		}
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 50; i++ {
		seed, k := rng.Int63n(1<<30), 1+2*(i%2)
		n := workload.TBackbone(seed).Scale(0.02)
		keep := rng.Perm(len(n.IP.Links))[:24]
		slices.Sort(keep)
		ipLinks := make([]topology.IPLink, len(keep))
		for j, l := range keep {
			ipLinks[j] = n.IP.Links[l]
		}
		if err := irreducible(tightModelOf(t, n, ipLinks, 32, k)); err != nil {
			t.Errorf("seed %d k %d links %v: %v", seed, k, keep, err)
		}
	}
}

// irreducible reports the first reduction m still offers, nil when none:
// two columns nothing in the model tells apart, a ≤ row whose support lies
// inside another ≤ row's, or a ≥ row coefficient above the row's rhs (a
// capacity coefficient above its demand).
func irreducible(m *Model) error {
	if groups := duplicateColumns(m); len(groups) > 0 {
		return fmt.Errorf("columns %v are alike", groups[0])
	}
	var le []int
	for r, c := range m.cons {
		switch c.rel {
		case LE:
			le = append(le, r)
		case GE:
			for _, term := range c.terms {
				if term.Coef > c.rhs {
					return fmt.Errorf("row %s: coefficient %v above its rhs %v", c.name, term.Coef, c.rhs)
				}
			}
		}
	}
	supports := make([][]VarID, len(m.cons))
	for _, r := range le {
		supports[r] = support(m.cons[r].terms)
	}
	for _, r := range le {
		for _, s := range le {
			if r != s && len(supports[r]) <= len(supports[s]) && within(supports[r], supports[s]) {
				return fmt.Errorf("row %s lies inside row %s", m.cons[r].name, m.cons[s].name)
			}
		}
	}
	return nil
}

// support is the ascending list of the columns terms touch.
func support(terms []Term) []VarID {
	out := make([]VarID, len(terms))
	for i, term := range terms {
		out[i] = term.Var
	}
	slices.Sort(out)
	return out
}

// capCoef maps each column to its coefficient in its ≥ (capacity) row.
func capCoef(m *Model) map[VarID]float64 {
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

// capped returns raw with every capacity coefficient capped at its row's
// demand, as plan.SolveExact caps them; raw is not written.
func capped(raw *Model) *Model {
	m := &Model{name: raw.name, sense: raw.sense, vars: raw.vars, cons: slices.Clone(raw.cons)}
	for i := range m.cons {
		if c := &m.cons[i]; c.rel == GE && c.rhs > 0 {
			c.terms = slices.Clone(c.terms)
			for k := range c.terms {
				c.terms[k].Coef = min(c.terms[k].Coef, c.rhs)
			}
		}
	}
	return m
}
