package solver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// planningModel restates the exact planning MIP plan.SolveExact builds
// (plan imports this package, so the builder cannot be called from here):
// one binary per (link, path, mode, start pixel), a capacity GE row per IP
// link, a conflict LE row per contended (fiber, pixel). The instance is the
// T-backbone network eval.ExactTBackboneProblem wraps — the model family the
// solver kernels were profiled on, dense in duplicate columns. links > 0
// keeps only the first that many IP links.
func planningModel(t testing.TB, seed int64, pixels, k, links int) *Model {
	t.Helper()
	n := workload.TBackbone(seed).Scale(0.02)
	grid := spectrum.Grid{PixelGHz: 12.5, Pixels: pixels}
	cat := transponder.RADWAN()
	m := NewModel("planning", Minimize)
	slotUsers := make(map[string][][]VarID)
	ipLinks := n.IP.Links
	if links > 0 && links < len(ipLinks) {
		ipLinks = ipLinks[:links]
	}
	for _, link := range ipLinks {
		var linkTerms []Term
		for pi, path := range n.Optical.KShortestPaths(link.A, link.B, k) {
			for _, mode := range cat.FeasibleModes(path.LengthKm) {
				px := mode.Pixels(grid)
				for q := 0; q+px <= pixels; q++ {
					name := "g[" + link.ID + "," + strconv.Itoa(pi) + "," + mode.String() + "," + strconv.Itoa(q) + "]"
					id := m.AddBinVar(name, 1+0.001*mode.SpacingGHz)
					linkTerms = append(linkTerms, Term{Var: id, Coef: float64(mode.DataRateGbps)})
					for _, f := range path.Fibers {
						if slotUsers[f] == nil {
							slotUsers[f] = make([][]VarID, pixels)
						}
						for w := q; w < q+px; w++ {
							slotUsers[f][w] = append(slotUsers[f][w], id)
						}
					}
				}
			}
		}
		if len(linkTerms) == 0 {
			t.Fatalf("seed %d: no feasible (path, mode) for link %s", seed, link.ID)
		}
		mustCon(t, m, "cap["+link.ID+"]", linkTerms, GE, float64(link.DemandGbps))
	}
	fibers := make([]string, 0, len(slotUsers))
	for f := range slotUsers {
		fibers = append(fibers, f)
	}
	sort.Strings(fibers)
	for _, f := range fibers {
		for w, users := range slotUsers[f] {
			if len(users) < 2 {
				continue
			}
			terms := make([]Term, len(users))
			for i, id := range users {
				terms[i] = Term{Var: id, Coef: 1}
			}
			mustCon(t, m, "slot["+f+","+strconv.Itoa(w)+"]", terms, LE, 1)
		}
	}
	return m
}

// duplicateRichModel is a random model full of duplicate columns: drawn
// from a small pool of (row pattern, objective, integrality) templates, so
// most have exact twins, plus near-twins differing in one coefficient.
func duplicateRichModel(rng *rand.Rand) *Model {
	m := NewModel("dups", Minimize)
	nRows, nCols := 3+rng.Intn(8), 6+rng.Intn(30)
	type tmpl struct {
		coef []float64
		obj  float64
		int_ bool
	}
	pool := make([]tmpl, 2+rng.Intn(5))
	for i := range pool {
		pool[i] = tmpl{coef: make([]float64, nRows), obj: float64(rng.Intn(4)), int_: rng.Intn(2) == 0}
		for r := range pool[i].coef {
			if rng.Intn(3) == 0 {
				pool[i].coef[r] = float64(1 + rng.Intn(3))
			}
		}
	}
	rowTerms := make([][]Term, nRows)
	for j := 0; j < nCols; j++ {
		tp := pool[rng.Intn(len(pool))]
		lb, ub := 0.0, float64(1+rng.Intn(3))
		switch rng.Intn(8) {
		case 0:
			ub = math.Inf(1) // unbounded: never a merge candidate
		case 1:
			lb = ub // fixed by its bounds
		}
		var v VarID
		if tp.int_ {
			v = m.AddIntVar(fmt.Sprintf("x%d", j), lb, ub, tp.obj)
		} else {
			v = m.AddVar(fmt.Sprintf("x%d", j), lb, ub, tp.obj)
		}
		twist := -1
		if rng.Intn(6) == 0 {
			twist = rng.Intn(nRows) // near-twin: one coefficient off
		}
		for r, c := range tp.coef {
			if r == twist {
				c++
			}
			if c != 0 {
				rowTerms[r] = append(rowTerms[r], Term{Var: v, Coef: c})
			}
		}
	}
	for r, terms := range rowTerms {
		if len(terms) == 0 {
			continue
		}
		if err := m.AddConstraint(fmt.Sprintf("r%d", r), terms, LE, float64(5+rng.Intn(20))); err != nil {
			panic(err)
		}
	}
	return m
}

// TestPresolveLeavesModelUntouched: the solver solves the model it is
// given without writing it — node presolve propagates into bound copies and
// the crash reads the rows — so every variable and every row's name, terms,
// relation and rhs read the same after a solve as before, on fuzz models
// (from a random 0/1 start too) and on planning models, with and without
// their start.
func TestPresolveLeavesModelUntouched(t *testing.T) {
	fingerprint := func(m *Model) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		put := func(x uint64) {
			binary.LittleEndian.PutUint64(buf[:], x)
			h.Write(buf[:])
		}
		for _, v := range m.vars {
			h.Write([]byte(v.name))
			put(math.Float64bits(v.lb))
			put(math.Float64bits(v.ub))
			put(math.Float64bits(v.obj))
			if v.integer {
				put(1)
			}
		}
		for _, c := range m.cons {
			h.Write([]byte(c.name))
			put(uint64(c.rel))
			put(math.Float64bits(c.rhs))
			put(uint64(len(c.terms)))
			for _, term := range c.terms {
				put(uint64(term.Var))
				put(math.Float64bits(term.Coef))
			}
		}
		return h.Sum64()
	}
	var models []*Model
	for seed := int64(0); seed < 600; seed++ {
		m := fuzzModel(seed, int(seed*7%256), int(seed*13%256))
		if seed%2 == 0 {
			start := make([]float64, m.NumVars())
			for i := range start {
				start[i] = float64(seed >> (i % 8) & 1)
			}
			m.SetStart(start)
		}
		models = append(models, m)
	}
	for seed := int64(1); seed <= 4; seed++ {
		models = append(models, tightPlanningModel(t, seed, 24, 1+int(seed)%3, 0), tightPlanningModel(t, seed, 32, 1, 24))
	}
	for i, m := range models {
		before := fingerprint(m)
		if _, err := m.SolveWithOptions(Options{Workers: 1, MaxNodes: 5, noStart: i%3 == 0}); err != nil {
			t.Fatal(err)
		}
		if fingerprint(m) != before {
			t.Fatalf("model %d (%s): the solve changed the model", i, m.name)
		}
	}
}

// TestAddConstraintMatchesReferenceMerge: the position-index merge must give
// every row the terms the scan/map merge gave — same first-occurrence order,
// same accumulated coefficients, cancelled terms dropped — on random term
// lists on both sides of the old 32-term switch, and leave the index zero.
func TestAddConstraintMatchesReferenceMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1406))
	coefs := []float64{1, -1, 0.5, -0.5, 3, 0.1, 0.2, -0.3, 0}
	m := NewModel("merge", Minimize)
	for i := 0; i < 60; i++ {
		m.AddVar(fmt.Sprintf("x%d", i), 0, 1, 0)
	}
	cancelled := 0
	for trial := 0; trial < 2000; trial++ {
		span := 1 + rng.Intn(60) // few distinct variables: many duplicates
		terms := make([]Term, rng.Intn(80))
		for i := range terms {
			terms[i] = Term{Var: VarID(rng.Intn(span)), Coef: coefs[rng.Intn(len(coefs))]}
		}
		want := mergeTermsOracle(append([]Term(nil), terms...))
		if err := m.AddConstraint("r", terms, LE, 1); err != nil {
			t.Fatal(err)
		}
		got := m.cons[len(m.cons)-1].terms
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged %v, reference %v", trial, got, want)
		}
		for v, k := range m.pos {
			if k != 0 {
				t.Fatalf("trial %d: position index left %d at variable %d", trial, k, v)
			}
		}
		if len(want) < len(terms) && len(want) > 0 {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no trial merged anything")
	}
}

// TestPriceRowBitEqualsPriceCol: the row-wise PRICE must give every column
// the very α the column-wise dot product gave — compared with ==, since the
// claim is that the additions happen in the same order — for hypersparse,
// moderately sparse and dense ρ, slack columns included.
func TestPriceRowBitEqualsPriceCol(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	models := []*Model{planningModel(t, 1, 16, 1, 12)}
	for i := 0; i < 20; i++ {
		models = append(models, randomFactorModel(t, rng, 10+rng.Intn(30), 20+rng.Intn(40), 0.05+0.3*rng.Float64()))
	}
	for mi, m := range models {
		rx := getRxScratch(m, Options{})
		for _, density := range []float64{0.02, 0.11, 0.5, 1} {
			for r := range rx.rho {
				rx.rho[r], rx.y[r] = 0, rng.NormFloat64()
				if rng.Float64() < density {
					rx.rho[r] = rng.NormFloat64()
				}
			}
			rx.priceRow()
			for j := 0; j < rx.nTot; j++ {
				alpha, d := rx.priceColOracle(j)
				if rx.alphaC[j] != alpha {
					t.Fatalf("model %d density %v column %d: row-wise α = %v, column-wise %v", mi, density, j, rx.alphaC[j], alpha)
				}
				if got := rx.reducedCost(j); got != d {
					t.Fatalf("model %d column %d: reducedCost = %v, priceCol d = %v", mi, j, got, d)
				}
			}
		}
	}
}

// evolveBasis replaces random basis columns of a fresh all-slack basis,
// accepting only well-conditioned replacements, and returns the basis after
// each accepted step (index 0 is the all-slack start).
func evolveBasis(t *testing.T, rng *rand.Rand, csc *cscMatrix, steps int) [][]int32 {
	t.Helper()
	basis := make([]int32, csc.rows)
	in := make(map[int32]bool)
	for r := range basis {
		basis[r] = int32(csc.cols + r)
		in[basis[r]] = true
	}
	out := [][]int32{append([]int32(nil), basis...)}
	ref := &luFactor{}
	x := make([]float64, csc.rows)
	w := make([]float64, csc.rows)
	for attempt := 0; attempt < 50*steps && len(out) <= steps; attempt++ {
		enter := int32(rng.Intn(csc.cols + csc.rows))
		if in[enter] {
			continue
		}
		if !ref.factorize(basis, csc, x) {
			t.Fatal("evolveBasis: accepted basis went singular")
		}
		scatterBasisCol(csc, enter, x)
		ref.ftran(x, w)
		var rows []int
		for r, v := range w {
			if math.Abs(v) >= 1e-2 {
				rows = append(rows, r)
			}
		}
		if len(rows) == 0 {
			continue
		}
		p := rows[rng.Intn(len(rows))]
		delete(in, basis[p])
		basis[p] = enter
		in[enter] = true
		out = append(out, append([]int32(nil), basis...))
	}
	if len(out) <= steps {
		t.Fatalf("evolveBasis: only %d of %d steps accepted", len(out)-1, steps)
	}
	return out
}

// TestFactorizeReachMatchesScan: visiting only the reachable pivot
// positions must reproduce the k < j scan's factors exactly — L, U, the
// permutation and the diagonal compared entry for entry — and a singular
// basis must fail the same way, work vector zeroed.
func TestFactorizeReachMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1403))
	for trial := 0; trial < 12; trial++ {
		var m *Model
		if trial == 0 {
			m = planningModel(t, 2, 16, 1, 12)
		} else {
			m = randomFactorModel(t, rng, 15+rng.Intn(25), 30+rng.Intn(40), 0.1+0.25*rng.Float64())
		}
		csc := m.cscMatrixOf()
		x := make([]float64, csc.rows)
		got, want := &luFactor{}, &luFactor{}
		for step, basis := range evolveBasis(t, rng, csc, 40) {
			label := fmt.Sprintf("trial %d step %d", trial, step)
			if !got.factorize(basis, csc, x) || !want.factorizeScan(basis, csc, x) {
				t.Fatalf("%s: factorize failed on a nonsingular basis", label)
			}
			for _, f := range []struct {
				name      string
				got, want interface{}
			}{
				{"lPtr", got.lPtr[:csc.rows+1], want.lPtr[:csc.rows+1]},
				{"lIdx", got.lIdx, want.lIdx},
				{"lVal", got.lVal, want.lVal},
				{"uPtr", got.uPtr[:csc.rows+1], want.uPtr[:csc.rows+1]},
				{"uIdx", got.uIdx, want.uIdx},
				{"uVal", got.uVal, want.uVal},
				{"perm", got.perm[:csc.rows], want.perm[:csc.rows]},
				{"pinv", got.pinv[:csc.rows], want.pinv[:csc.rows]},
				{"udiag", got.udiag[:csc.rows], want.udiag[:csc.rows]},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("%s: %s differs from the k<j scan", label, f.name)
				}
			}
			if step == 40 {
				// Singular: one structural column entered twice.
				bad := append([]int32(nil), basis...)
				var structural []int
				for i, c := range bad {
					if int(c) < csc.cols {
						structural = append(structural, i)
					}
				}
				if len(structural) == 0 {
					t.Fatalf("%s: no structural column in the evolved basis", label)
				}
				src := structural[0]
				bad[(src+1)%len(bad)] = bad[src]
				if got.factorize(bad, csc, x) || want.factorizeScan(bad, csc, x) {
					t.Fatalf("%s: duplicated column factorized as nonsingular", label)
				}
				for r, v := range x {
					if v != 0 {
						t.Fatalf("%s: singular exit left x[%d] = %v", label, r, v)
					}
				}
				for _, v := range got.queue.bits {
					if v != 0 {
						t.Fatalf("%s: singular exit left positions queued", label)
					}
				}
			}
		}
	}
}

// solveRHS fills v with the named right-hand-side shape.
func solveRHS(rng *rand.Rand, shape string, v []float64) {
	for i := range v {
		v[i] = 0
	}
	switch shape {
	case "unit":
		v[rng.Intn(len(v))] = 1
	case "hypersparse":
		for n := 0; n < 1+len(v)/10; n++ {
			v[rng.Intn(len(v))] = rng.NormFloat64()
		}
	default:
		for i := range v {
			v[i] = rng.NormFloat64()
		}
	}
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestSolvesMatchOracles drives a factor through Forrest–Tomlin updates
// and, after 0, 1 and 40 of them, requires btran — alone
// and with two right-hand sides in one pass — and ftran to reproduce the
// replaced single-solve forms exactly on unit, hypersparse and dense
// right-hand sides: same values, same captured spike, inputs zeroed, the
// solve counters advanced by the number of systems solved.
func TestSolvesMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	for trial := 0; trial < 6; trial++ {
		var m *Model
		if trial == 0 {
			m = planningModel(t, 3, 16, 1, 12)
		} else {
			m = randomFactorModel(t, rng, 20+rng.Intn(20), 40+rng.Intn(30), 0.1+0.2*rng.Float64())
		}
		csc := m.cscMatrixOf()
		n := csc.rows
		bases := evolveBasis(t, rng, csc, 40)
		f := &luFactor{}
		x := make([]float64, n)
		w := make([]float64, n)
		if !f.factorize(bases[0], csc, x) {
			t.Fatal("all-slack basis singular")
		}
		check := func(updates int) {
			for _, shape := range []string{"unit", "hypersparse", "dense"} {
				label := fmt.Sprintf("trial %d after %d updates, %s rhs", trial, updates, shape)
				rhs, rhs2 := make([]float64, n), make([]float64, n)
				solveRHS(rng, shape, rhs)
				solveRHS(rng, "dense", rhs2)
				in := func(v []float64) []float64 { return append([]float64(nil), v...) }

				want, want2 := make([]float64, n), make([]float64, n)
				f.btranOracle(in(rhs), want)
				f.btranOracle(in(rhs2), want2)
				got, got2 := make([]float64, n), make([]float64, n)
				c, c2 := in(rhs), in(rhs2)
				before := f.nBtran
				f.btran(c, got, nil, nil)
				if !reflect.DeepEqual(zeroSigns(got), zeroSigns(want)) || !allZero(c) || f.nBtran != before+1 {
					t.Fatalf("%s: single btran diverges from the oracle", label)
				}
				c = in(rhs)
				f.btran(c, got, c2, got2)
				if !reflect.DeepEqual(zeroSigns(got), zeroSigns(want)) || !reflect.DeepEqual(zeroSigns(got2), zeroSigns(want2)) {
					t.Fatalf("%s: paired btran diverges from two oracle solves", label)
				}
				if !allZero(c) || !allZero(c2) || f.nBtran != before+3 {
					t.Fatalf("%s: paired btran left inputs dirty or miscounted (%d solves)", label, f.nBtran-before)
				}
				if !allZero(f.c2) {
					t.Fatalf("%s: the absent-rhs stand-in is no longer zero", label)
				}

				f.ftranOracle(in(rhs), want)
				spike := in(f.vbuf)
				xin := in(rhs)
				f.ftran(xin, got)
				if !reflect.DeepEqual(zeroSigns(got), zeroSigns(want)) || !allZero(xin) {
					t.Fatalf("%s: ftran diverges from the oracle", label)
				}
				if !reflect.DeepEqual(zeroSigns(in(f.vbuf)), zeroSigns(spike)) {
					t.Fatalf("%s: ftran captured a different spike", label)
				}
			}
		}
		check(0)
		for step := 1; step <= 40; step++ {
			// The one position whose column changed between bases.
			p := -1
			for i := range bases[step] {
				if bases[step][i] != bases[step-1][i] {
					p = i
				}
			}
			scatterBasisCol(csc, bases[step][p], x)
			f.ftran(x, w)
			if f.needRefactor() || !f.ftUpdate(p, w[p]) {
				if !f.factorize(bases[step], csc, x) {
					t.Fatalf("trial %d step %d: refactorize failed", trial, step)
				}
			}
			if step == 1 || step == 40 {
				check(step)
			}
		}
		if f.nUpdate == 0 {
			t.Fatalf("trial %d: no in-place update was exercised", trial)
		}
	}
}

// zeroSigns maps −0 to +0 so DeepEqual compares values the way == does: a
// skipped no-op step may leave the other zero behind, and nothing downstream
// can tell them apart.
func zeroSigns(v []float64) []float64 {
	for i, x := range v {
		if x == 0 {
			v[i] = 0
		}
	}
	return v
}

// threeBucketSeed selects fuzzModel's fixed corpus model: three families
// of duplicate columns (different row patterns, so three hash buckets),
// each with three members, one of them continuous.
const threeBucketSeed int64 = math.MinInt64

func fuzzModel(seed int64, nv, nr int) *Model {
	if seed == threeBucketSeed {
		m := NewModel("three-buckets", Maximize)
		var rows [3][]Term
		for fam := 0; fam < 3; fam++ {
			for k := 0; k < 3; k++ {
				name := fmt.Sprintf("f%d_%d", fam, k)
				var v VarID
				if fam == 2 {
					v = m.AddVar(name, 0, 2, 3)
				} else {
					v = m.AddIntVar(name, 0, 2, float64(1+fam))
				}
				rows[fam] = append(rows[fam], Term{Var: v, Coef: 1})
				rows[(fam+1)%3] = append(rows[(fam+1)%3], Term{Var: v, Coef: 2})
			}
		}
		for r, terms := range rows {
			if err := m.AddConstraint(fmt.Sprintf("r%d", r), terms, LE, float64(7+2*r)); err != nil {
				panic(err)
			}
		}
		return m
	}
	rng := rand.New(rand.NewSource(seed))
	if rng.Intn(2) == 0 {
		return duplicateRichModel(rng)
	}
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	m := NewModel("fuzz", sense)
	nv, nr = 1+nv%14, 1+nr%7
	vars := make([]VarID, nv)
	for i := range vars {
		lb := float64(rng.Intn(3) - 1)
		ub := lb + float64(rng.Intn(4))
		obj := float64(rng.Intn(11) - 5)
		if rng.Intn(4) == 0 {
			vars[i] = m.AddVar(fmt.Sprintf("c%d", i), lb, ub, obj)
		} else {
			vars[i] = m.AddIntVar(fmt.Sprintf("x%d", i), lb, ub, obj)
		}
	}
	for r := 0; r < nr; r++ {
		var terms []Term
		for _, v := range vars {
			if c := float64(rng.Intn(7) - 3); c != 0 && rng.Intn(2) == 0 {
				terms = append(terms, Term{Var: v, Coef: c})
			}
		}
		if len(terms) == 0 {
			continue
		}
		if err := m.AddConstraint(fmt.Sprintf("r%d", r), terms, Rel(rng.Intn(3)), float64(rng.Intn(13)-3)); err != nil {
			panic(err)
		}
	}
	return m
}

// TestThreeBucketCorpusModelMerges pins what the fuzz corpus entry is for:
// its duplicate columns really do form three groups of three.
func TestThreeBucketCorpusModelMerges(t *testing.T) {
	groups := duplicateColumns(fuzzModel(threeBucketSeed, 0, 0))
	if len(groups) != 3 {
		t.Fatalf("three-bucket model has %d duplicate groups (%v), want 3", len(groups), groups)
	}
	for _, g := range groups {
		if len(g) != 3 {
			t.Fatalf("group %v has %d members, want 3", g, len(g))
		}
	}
}

// duplicateColumns groups the columns of m that nothing in the model tells
// apart: the same objective, bounds and integrality, and the same
// coefficient in every row. Groups of two or more come back ascending, in
// the order of their first columns.
func duplicateColumns(m *Model) [][]VarID {
	cols := make([][]Term, len(m.vars)) // Var: the row
	for r, c := range m.cons {
		for _, term := range c.terms {
			cols[term.Var] = append(cols[term.Var], Term{Var: VarID(r), Coef: term.Coef})
		}
	}
	index := make(map[string]int)
	var groups [][]VarID
	for j, v := range m.vars {
		key := fmt.Sprint(v.obj, v.lb, v.ub, v.integer, cols[j])
		g, ok := index[key]
		if !ok {
			g = len(groups)
			index[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], VarID(j))
	}
	return slices.DeleteFunc(groups, func(g []VarID) bool { return len(g) < 2 })
}
