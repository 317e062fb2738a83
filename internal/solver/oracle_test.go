package solver

import (
	"math"
	"sort"
)

// The dimension-proportional kernels the sparsity-aware ones replaced, kept
// verbatim (bodies untouched, only renamed or cut out of their caller) as
// oracles for the differential tests in kernel_test.go. Nothing outside
// _test.go files may call them.

// mergeDuplicatesRescan is mergeDuplicates with the row-rescanning colOf:
// every bucket member's column is rebuilt by scanning every live row.
func (p *presolved) mergeDuplicatesRescan(rows []preRow) {
	nv := len(p.orig.vars)
	type sig struct {
		hash uint64
		n    int // term count, quick reject
	}
	sigs := make([]sig, nv)
	// Order-dependent multiply-xor mix (splitmix-style finalizer): the
	// signature must distinguish (row, coef) sequences, not be
	// cryptographic, and it runs once per nonzero — collisions are
	// resolved by the exact pairwise verification below.
	mix := func(h uint64, x uint64) uint64 {
		h ^= x
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
		return h
	}
	for i := range sigs {
		sigs[i].hash = 14695981039346656037
	}
	for r := range rows {
		if !rows[r].live {
			continue
		}
		for _, t := range rows[r].terms {
			sigs[t.Var].hash = mix(mix(sigs[t.Var].hash, uint64(r)), math.Float64bits(t.Coef))
			sigs[t.Var].n++
		}
	}
	// Sort (hash, var) pairs and walk adjacent equal-hash runs: the same
	// grouping the map of slices produced, without an allocation per
	// bucket and with a deterministic group order.
	type cand struct {
		hash uint64
		v    int
	}
	cands := make([]cand, 0, nv)
	for i := range p.orig.vars {
		if p.fixed[i] || math.IsInf(p.lb[i], -1) || math.IsInf(p.ub[i], 1) {
			continue
		}
		h := mix(sigs[i].hash, math.Float64bits(p.orig.vars[i].obj))
		if p.orig.vars[i].integer {
			h = mix(h, 1)
		}
		cands = append(cands, cand{h, i})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].hash != cands[b].hash {
			return cands[a].hash < cands[b].hash
		}
		return cands[a].v < cands[b].v
	})
	// Verify buckets exactly: collect each candidate's (row, coef) list
	// lazily and compare representatives pairwise within the bucket.
	colOf := func(v int) []Term {
		var col []Term
		for r := range rows {
			if !rows[r].live {
				continue
			}
			for _, t := range rows[r].terms {
				if int(t.Var) == v {
					col = append(col, Term{Var: VarID(r), Coef: t.Coef})
				}
			}
		}
		return col
	}
	sameCol := func(a, b []Term) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	var bucket []int
	for lo := 0; lo < len(cands); {
		hi := lo + 1
		for hi < len(cands) && cands[hi].hash == cands[lo].hash {
			hi++
		}
		bucket = bucket[:0]
		for _, c := range cands[lo:hi] {
			bucket = append(bucket, c.v)
		}
		lo = hi
		if len(bucket) < 2 {
			continue
		}
		cols := make([][]Term, len(bucket))
		used := make([]bool, len(bucket))
		for i := range bucket {
			cols[i] = colOf(bucket[i])
		}
		for i := 0; i < len(bucket); i++ {
			if used[i] {
				continue
			}
			vi := bucket[i]
			var grp []int
			for j := i + 1; j < len(bucket); j++ {
				if used[j] {
					continue
				}
				vj := bucket[j]
				if p.orig.vars[vi].obj != p.orig.vars[vj].obj ||
					p.orig.vars[vi].integer != p.orig.vars[vj].integer ||
					!sameCol(cols[i], cols[j]) {
					continue
				}
				if grp == nil {
					grp = []int{vi}
				}
				grp = append(grp, vj)
				used[j] = true
			}
			if grp != nil {
				for _, v := range grp {
					p.grpOf[v] = len(p.groups)
				}
				p.groups = append(p.groups, grp)
			}
		}
	}
}

// priceColOracle is the column-wise PRICE: α_j = ρ·a_j and d_j = c_j − y·a_j
// in one pass down column j.
func (rx *rxScratch) priceColOracle(j int) (alpha, d float64) {
	if j >= rx.nCols {
		r := j - rx.nCols
		return rx.rho[r], rx.cost[j] - rx.y[r]
	}
	var yd float64
	for k := rx.csc.colPtr[j]; k < rx.csc.colPtr[j+1]; k++ {
		r := rx.csc.rowIdx[k]
		alpha += rx.csc.val[k] * rx.rho[r]
		yd += rx.csc.val[k] * rx.y[r]
	}
	return alpha, rx.cost[j] - yd
}

// factorizeScan is factorize with the left-looking elimination scanning
// every prior pivot position k < j.
func (f *luFactor) factorizeScan(basis []int32, csc *cscMatrix, x []float64) bool {
	m := csc.rows
	f.m = m
	f.perm = growInt32(f.perm, m)
	f.pinv = growInt32(f.pinv, m)
	f.udiag = growFloats(f.udiag, m)
	f.lPtr = growInt32(f.lPtr, m+1)
	f.uPtr = growInt32(f.uPtr, m+1)
	f.lIdx, f.lVal = f.lIdx[:0], f.lVal[:0]
	f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]
	f.etaPos, f.etaPiv = f.etaPos[:0], f.etaPiv[:0]
	f.etaIdx, f.etaVal = f.etaIdx[:0], f.etaVal[:0]
	f.etaPtr = append(f.etaPtr[:0], 0)
	f.mark = growBools(f.mark, m)
	if cap(f.touch) < m {
		f.touch = make([]int32, 0, m)
	}
	for r := 0; r < m; r++ {
		f.pinv[r] = -1
		f.mark[r] = false
	}
	f.lPtr[0], f.uPtr[0] = 0, 0

	for j := 0; j < m; j++ {
		// Scatter basis column j into the dense work vector.
		touch := f.touch[:0]
		col := basis[j]
		if int(col) >= csc.cols {
			r := col - int32(csc.cols)
			x[r] = 1
			f.mark[r] = true
			touch = append(touch, r)
		} else {
			for k := csc.colPtr[col]; k < csc.colPtr[col+1]; k++ {
				r := csc.rowIdx[k]
				x[r] = csc.val[k]
				f.mark[r] = true
				touch = append(touch, r)
			}
		}
		// Left-looking elimination: columns k < j in pivot order. A prior
		// pivot row's value is fixed once its column is passed (later L
		// columns touch only still-unpivoted rows), so the ascending scan
		// sees every fill-in exactly once.
		for k := 0; k < j; k++ {
			pr := f.perm[k]
			xk := x[pr]
			if xk == 0 {
				continue
			}
			f.uIdx = append(f.uIdx, int32(k))
			f.uVal = append(f.uVal, xk)
			for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
				i := f.lIdx[t]
				if !f.mark[i] {
					f.mark[i] = true
					touch = append(touch, i)
				}
				x[i] -= xk * f.lVal[t]
			}
		}
		f.uPtr[j+1] = int32(len(f.uIdx))
		// Partial pivoting over the unpivoted touched rows.
		piv, pivAbs := int32(-1), luSingTol
		for _, i := range touch {
			if f.pinv[i] < 0 {
				if a := math.Abs(x[i]); a > pivAbs {
					pivAbs, piv = a, i
				}
			}
		}
		if piv < 0 {
			// Singular: clean up the work vector before failing.
			for _, i := range touch {
				x[i] = 0
				f.mark[i] = false
			}
			f.touch = touch[:0]
			return false
		}
		f.perm[j] = piv
		f.pinv[piv] = int32(j)
		d := x[piv]
		f.udiag[j] = d
		for _, i := range touch {
			if f.pinv[i] < 0 && x[i] != 0 {
				f.lIdx = append(f.lIdx, i)
				f.lVal = append(f.lVal, x[i]/d)
			}
			x[i] = 0
			f.mark[i] = false
		}
		f.lPtr[j+1] = int32(len(f.lIdx))
		f.touch = touch[:0]
	}
	f.nFactor++
	if f.ft {
		f.loadFT()
	}
	if fill := len(f.uIdx) + m; fill > f.peakFill {
		f.peakFill = fill
	}
	return true
}

// ftranOracle is ftran before the U-solve's zero test moved ahead of the
// division.
func (f *luFactor) ftranOracle(x, out []float64) {
	f.nFtran++
	// L solve in place (original-row space, pivot order).
	for k := 0; k < f.m; k++ {
		xk := x[f.perm[k]]
		if xk != 0 {
			for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
				x[f.lIdx[t]] -= xk * f.lVal[t]
			}
		}
	}
	// Gather to pivot order, restoring the zero invariant on x.
	for k := 0; k < f.m; k++ {
		out[k] = x[f.perm[k]]
		x[f.perm[k]] = 0
	}
	if f.ft {
		// Row etas in creation order: (R·z)[p] = z[p] − rᵀz.
		for e := 0; e < len(f.etaPos); e++ {
			p := f.etaPos[e]
			dot := 0.0
			for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
				dot += f.etaVal[t] * out[f.etaIdx[t]]
			}
			out[p] -= dot
		}
		copy(f.vbuf[:f.m], out[:f.m])
		// Permuted U solve, backward in sequence order: every column entry
		// sits at an earlier sequence position than its column.
		for t := f.m - 1; t >= 0; t-- {
			j := int(f.order[t])
			v := out[j] / f.udiag[j]
			out[j] = v
			if v != 0 {
				ci, cv := f.us.entries(j)
				for q, k := range ci {
					out[k] -= v * cv[q]
				}
			}
		}
		return
	}
	// U solve (backward; pivot order equals basis position for columns).
	for j := f.m - 1; j >= 0; j-- {
		v := out[j] / f.udiag[j]
		out[j] = v
		if v != 0 {
			for t := f.uPtr[j]; t < f.uPtr[j+1]; t++ {
				out[f.uIdx[t]] -= v * f.uVal[t]
			}
		}
	}
	// Eta file in creation order: E⁻¹z scales position p then updates the
	// spike's other nonzeros.
	for e := 0; e < len(f.etaPos); e++ {
		p := f.etaPos[e]
		zp := out[p] / f.etaPiv[e]
		out[p] = zp
		if zp != 0 {
			for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
				out[f.etaIdx[t]] -= zp * f.etaVal[t]
			}
		}
	}
}

// btranOracle is the single-right-hand-side btran: Lᵀ solved in place in
// position space through pinv, then scattered to original rows.
func (f *luFactor) btranOracle(c, out []float64) {
	f.nBtran++
	if f.ft {
		// Permuted Uᵀ solve, forward in sequence order (in place).
		for t := 0; t < f.m; t++ {
			j := int(f.order[t])
			s := c[j]
			ci, cv := f.us.entries(j)
			for q, k := range ci {
				s -= cv[q] * c[k]
			}
			c[j] = s / f.udiag[j]
		}
		// Row-eta transposes in reverse creation order: Rᵀ = I − r·e_pᵀ
		// scatters −r·c[p] into the eliminated columns.
		for e := len(f.etaPos) - 1; e >= 0; e-- {
			cp := c[f.etaPos[e]]
			if cp != 0 {
				for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
					c[f.etaIdx[t]] -= f.etaVal[t] * cp
				}
			}
		}
	} else {
		// Eta transposes in reverse creation order: only position p changes.
		for e := len(f.etaPos) - 1; e >= 0; e-- {
			p := f.etaPos[e]
			dot := 0.0
			for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
				dot += f.etaVal[t] * c[f.etaIdx[t]]
			}
			c[p] = (c[p] - dot) / f.etaPiv[e]
		}
		// Uᵀ solve (forward, in place): t_j = (c_j − Σ_{k<j} U[k,j]·t_k)/U[j,j].
		for j := 0; j < f.m; j++ {
			s := c[j]
			for t := f.uPtr[j]; t < f.uPtr[j+1]; t++ {
				s -= f.uVal[t] * c[f.uIdx[t]]
			}
			c[j] = s / f.udiag[j]
		}
	}
	// Lᵀ solve (backward, in place): s_k = t_k − Σ_{i} L[i,k]·s_{pinv[i]}.
	for k := f.m - 1; k >= 0; k-- {
		s := c[k]
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			s -= f.lVal[t] * c[f.pinv[f.lIdx[t]]]
		}
		c[k] = s
	}
	// Scatter to original-row space, restoring the zero invariant on c.
	for k := 0; k < f.m; k++ {
		out[f.perm[k]] = c[k]
		c[k] = 0
	}
}

// fixpointRescan is presolve's reduction fixpoint before it learned to skip
// unchanged rows: every pass revisits every live row.
func (p *presolved) fixpointRescan(rows []preRow) bool {
	if !p.roundIntegerBounds() {
		return false
	}
	p.detectFixed()
	for pass := 0; pass < preMaxPasses; pass++ {
		changed := false
		for r := range rows {
			row := &rows[r]
			if !row.live {
				continue
			}
			if p.substituteFixed(row) {
				changed = true
			}
			switch p.reduceRow(row) {
			case preInfeasible:
				return false
			case preChanged:
				changed = true
			}
			if row.live && p.tightenCoefs(row) {
				changed = true
			}
		}
		if !p.roundIntegerBounds() {
			return false
		}
		if p.detectFixed() {
			changed = true
		}
		if p.dualFix(rows) {
			changed = true
			p.detectFixed()
		}
		if !changed {
			break
		}
	}
	return true
}

// mergeTermsOracle is AddConstraint's duplicate merge before the position
// index: a quadratic scan up to 32 terms, a map accumulator above.
func mergeTermsOracle(terms []Term) []Term {
	merged := make([]Term, 0, len(terms))
	if len(terms) <= 32 {
		for _, t := range terms {
			found := false
			for i := range merged {
				if merged[i].Var == t.Var {
					merged[i].Coef += t.Coef
					found = true
					break
				}
			}
			if !found {
				merged = append(merged, t)
			}
		}
	} else {
		acc := make(map[VarID]float64, len(terms))
		for _, t := range terms {
			if _, seen := acc[t.Var]; !seen {
				merged = append(merged, Term{Var: t.Var})
			}
			acc[t.Var] += t.Coef
		}
		for i := range merged {
			merged[i].Coef = acc[merged[i].Var]
		}
	}
	out := merged[:0]
	for _, t := range merged {
		if t.Coef != 0 {
			out = append(out, t)
		}
	}
	return out
}
