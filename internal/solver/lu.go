package solver

import (
	"math"
	"math/bits"
)

// Basis-factorization tolerances and policy.
const (
	// luSingTol is the pivot magnitude below which a basis column is
	// declared singular and factorization fails (the caller falls back).
	luSingTol = 1e-11
	// luEtaTol is the spike-pivot magnitude below which a pivot triggers a
	// fresh factorization instead of a basis update: dividing by a tiny
	// w_p amplifies error through every later FTRAN/BTRAN.
	luEtaTol = 1e-7
	// luDriftTol is the relative disagreement allowed between the
	// Forrest–Tomlin diagonal identity d_new = w_p·d_old and the value the
	// row elimination actually produces before the factorization is declared
	// numerically degraded and rebuilt.
	luDriftTol = 1e-6
)

// uStore holds the Forrest–Tomlin-maintained U factor as 2m sparse lines —
// one per column (above-diagonal entries, keyed by row) and one per row
// (off-diagonal entries, keyed by column) — packed into one index/value
// pool. Lines get slack room on placement; an append past a line's room
// relocates the line to the pool tail (marking the old span dead), and the
// pool compacts itself when growth would otherwise reallocate over mostly
// dead space. Everything is retained across factorizations, so steady-state
// updates allocate nothing.
type uStore struct {
	idx   []int32
	val   []float64
	start []int32
	count []int32
	room  []int32
	used  int
	dead  int
}

// reset prepares the store for lines sparse lines totalling about nnz live
// entries, reusing the pool when it is big enough.
func (s *uStore) reset(lines, nnz int) {
	s.start = grow(s.start, lines)
	s.count = grow(s.count, lines)
	s.room = grow(s.room, lines)
	if need := nnz + 4*lines; len(s.idx) < need {
		s.idx = make([]int32, need+need/2)
		s.val = make([]float64, len(s.idx))
	}
	s.used, s.dead = 0, 0
}

// place opens line with room for n entries at the pool tail. Only valid
// during the post-factorization load, where total room is pre-counted.
func (s *uStore) place(line, n int) {
	s.start[line] = int32(s.used)
	s.count[line] = 0
	s.room[line] = int32(n)
	s.used += n
}

// push appends (i, v) to a line that is known to have room.
func (s *uStore) push(line int, i int32, v float64) {
	at := int(s.start[line] + s.count[line])
	s.idx[at], s.val[at] = i, v
	s.count[line]++
}

// entries returns line's live index and value slices.
func (s *uStore) entries(line int) ([]int32, []float64) {
	lo, n := int(s.start[line]), int(s.count[line])
	return s.idx[lo : lo+n], s.val[lo : lo+n]
}

// append adds (i, v) to line, relocating the line to the pool tail when it
// is out of room.
func (s *uStore) append(line int, i int32, v float64) {
	if s.count[line] == s.room[line] {
		s.relocate(line)
	}
	s.push(line, i, v)
}

// relocate moves line to the pool tail with doubled room, growing (and
// compacting) the pool if the tail is exhausted.
func (s *uStore) relocate(line int) {
	n := int(s.count[line])
	room := 2*n + 4
	if s.used+room > len(s.idx) {
		s.grow(room)
	}
	lo, at := int(s.start[line]), s.used
	copy(s.idx[at:at+n], s.idx[lo:lo+n])
	copy(s.val[at:at+n], s.val[lo:lo+n])
	s.dead += int(s.room[line])
	s.start[line] = int32(at)
	s.room[line] = int32(room)
	s.used += room
}

// grow compacts every line into a fresh pool with at least need free
// entries at the tail. Dead space is dropped and each line gets modest
// fresh slack, so repeated relocation of a hot line stays amortized O(1).
func (s *uStore) grow(need int) {
	total := need
	for l := range s.start {
		total += int(s.count[l]) + 2
	}
	size := total + total/2
	if size < len(s.idx) {
		size = len(s.idx) // never shrink: the pool is retained scratch
	}
	idx := make([]int32, size)
	val := make([]float64, size)
	used := 0
	for l := range s.start {
		n := int(s.count[l])
		lo := int(s.start[l])
		copy(idx[used:used+n], s.idx[lo:lo+n])
		copy(val[used:used+n], s.val[lo:lo+n])
		s.start[l] = int32(used)
		s.room[l] = int32(n + 2)
		used += n + 2
	}
	s.idx, s.val = idx, val
	s.used, s.dead = used, 0
}

// removeWhere deletes the entry with index i from line (swap-remove; line
// order is not meaningful). Missing entries are ignored — the caller may
// have dropped an exact-zero value on insert.
func (s *uStore) removeWhere(line int, i int32) {
	lo, n := int(s.start[line]), int(s.count[line])
	for t := lo; t < lo+n; t++ {
		if s.idx[t] == i {
			last := lo + n - 1
			s.idx[t], s.val[t] = s.idx[last], s.val[last]
			s.count[line]--
			return
		}
	}
}

// clear empties line, keeping its room.
func (s *uStore) clear(line int) { s.count[line] = 0 }

// luFactor is an LU factorization of the simplex basis B (the constraint
// columns of the basic variables) with partial pivoting,
//
//	P·B₀ = L·U        (left-looking sparse LU, unit-diagonal L)
//
// maintained across pivots by Forrest–Tomlin updates: U is kept as a
// dynamic sparse permuted-triangular factor (uStore rows+columns plus a
// sequence order). Each pivot replaces one U column with the partially
// transformed spike and restores triangularity with a single row
// elimination recorded as a row eta R = I − e_p·rᵀ sitting between L and
// U. Refactorization is adaptive: measured fill growth or numerical drift
// against the determinant identity d_new = w_p·d_old.
//
// FTRAN solves B·w = a; BTRAN solves Bᵀ·v = c. L rows are indexed in
// original constraint-row space, U in pivot order (which equals basis
// position), etas in basis-position space. All buffers are retained across
// factorizations, and with the workspace (rxPool) across solves, so a
// branch-and-bound search refactorizing thousands of times, or a stream of
// solves, allocates only on growth.
type luFactor struct {
	m    int
	perm []int32 // pivot order k → original row
	pinv []int32 // original row → pivot order

	lPtr []int32 // len m+1; L column k occupies [lPtr[k], lPtr[k+1])
	lIdx []int32 // original-row index of each below-diagonal L entry
	lVal []float64

	uPtr  []int32 // len m+1; static U column j (above-diagonal) entries
	uIdx  []int32 // pivot-order index k < j
	uVal  []float64
	udiag []float64 // U diagonal per column

	// The row etas R_e = I − e_p·rᵀ applied between L and U, one per
	// update that eliminated anything.
	etaPos []int32
	etaPtr []int32 // len nEtas+1; offsets into etaIdx/etaVal
	etaIdx []int32
	etaVal []float64

	// The dynamic U store, the triangularity sequence (order[t] = basis
	// position at sequence slot t), the spike captured by the most recent
	// ftran, and the row-elimination scratch.
	us       uStore
	order    []int32
	seqPos   []int32
	vbuf     []float64 // pre-U-solve spike from the last ftran
	work     []float64 // row-elimination accumulator (zero between updates)
	wmark    []bool
	rowCnt   []int32 // loadFT scratch: row populations of the static U
	uLive    int     // live off-diagonal entries in the dynamic U
	baseFill int     // uLive + m right after the last factorization

	mark  []bool    // factorization scratch: row touched this column
	touch []int32   // factorization scratch: touched-row list
	queue posQueue  // factorization scratch: pivot positions the current column still has to eliminate
	c2    []float64 // btran scratch: the all-zero stand-in for an absent second right-hand side, and its solution

	// Health counters, cumulative since getRxScratch took the workspace
	// from the pool (one factor per solve).
	nFactor  int // full factorizations
	nUpdate  int // in-place Forrest–Tomlin updates
	nFtran   int
	nBtran   int
	peakFill int // peak of U nnz (diag included) + row-eta nnz
}

// grow returns s resized to length n, reusing its backing array when the
// capacity allows (old contents stay) and allocating a zeroed one otherwise.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// posQueue is a bitset over positions 0..n−1 read as a monotone priority
// queue: pop returns members in ascending order, and every add lands above
// the last pop. The left-looking factorization has that shape — eliminating
// pivot position k can only make later positions nonzero — so it visits
// exactly the positions an ascending scan over every k would do arithmetic
// at, in the same order, without scanning the rest. A drained queue is
// all-clear, so reuse costs nothing.
type posQueue struct {
	bits []uint64
	w    int // word the next pop resumes at
}

// reset sizes a drained queue for n positions.
func (q *posQueue) reset(n int) {
	if words := (n + 63) >> 6; cap(q.bits) < words {
		q.bits = make([]uint64, words)
	} else {
		q.bits = q.bits[:words]
	}
	q.w = 0
}

func (q *posQueue) add(i int32) { q.bits[i>>6] |= 1 << uint(i&63) }

// pop removes and returns the smallest member, or −1 when drained.
func (q *posQueue) pop() int32 {
	for ; q.w < len(q.bits); q.w++ {
		if b := q.bits[q.w]; b != 0 {
			q.bits[q.w] = b & (b - 1)
			return int32(q.w<<6 + bits.TrailingZeros64(b))
		}
	}
	return -1
}

// touchRow marks original row r as touched by the column being factorized
// and, when r is already pivoted, queues its pivot position for
// elimination. Returns the extended touch list.
func (f *luFactor) touchRow(touch []int32, r int32) []int32 {
	f.mark[r] = true
	if k := f.pinv[r]; k >= 0 {
		f.queue.add(k)
	}
	return append(touch, r)
}

// factorize computes P·B = L·U for the basis given as one column index
// per row position (structural column, or cols+r for row r's slack),
// clears the row etas and loads the fresh U into the dynamic store.
// Returns false when the basis is numerically singular. The caller's
// dense work vectors must be zero on entry; x is used as the dense
// accumulation column and is zero again on return.
func (f *luFactor) factorize(basis []int32, csc *cscMatrix, x []float64) bool {
	m := csc.rows
	f.m = m
	f.perm = grow(f.perm, m)
	f.pinv = grow(f.pinv, m)
	f.udiag = grow(f.udiag, m)
	f.lPtr = grow(f.lPtr, m+1)
	f.uPtr = grow(f.uPtr, m+1)
	f.lIdx, f.lVal = f.lIdx[:0], f.lVal[:0]
	f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]
	f.etaPos = f.etaPos[:0]
	f.etaIdx, f.etaVal = f.etaIdx[:0], f.etaVal[:0]
	f.etaPtr = append(f.etaPtr[:0], 0)
	f.mark = grow(f.mark, m)
	f.queue.reset(m)
	if cap(f.touch) < m {
		f.touch = make([]int32, 0, m)
	}
	for r := 0; r < m; r++ {
		f.pinv[r] = -1
		f.mark[r] = false
	}
	f.lPtr[0], f.uPtr[0] = 0, 0

	for j := 0; j < m; j++ {
		// Scatter basis column j into the dense work vector. Every touched
		// row that is already pivoted queues its pivot position: one the
		// elimination below must visit.
		touch := f.touch[:0]
		col := basis[j]
		if int(col) >= csc.cols {
			r := col - int32(csc.cols)
			x[r] = 1
			touch = f.touchRow(touch, r)
		} else {
			for k := csc.colPtr[col]; k < csc.colPtr[col+1]; k++ {
				r := csc.rowIdx[k]
				x[r] = csc.val[k]
				touch = f.touchRow(touch, r)
			}
		}
		// Left-looking elimination over the pivot positions k < j the column
		// actually reaches, in ascending order. A prior pivot row's value is
		// fixed once its column is passed (later L columns touch only rows
		// unpivoted at that time, so any fill-in lands at a later position
		// and is queued before it is due), so the ascending walk sees every
		// fill-in exactly once — the same operations in the same order as a
		// scan over every k < j, at O(fill) cost.
		f.queue.w = 0
		for k := f.queue.pop(); k >= 0; k = f.queue.pop() {
			xk := x[f.perm[k]]
			if xk == 0 {
				continue
			}
			f.uIdx = append(f.uIdx, k)
			f.uVal = append(f.uVal, xk)
			for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
				i := f.lIdx[t]
				if !f.mark[i] {
					touch = f.touchRow(touch, i)
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
	f.loadFT()
	if fill := len(f.uIdx) + m; fill > f.peakFill {
		f.peakFill = fill
	}
	return true
}

// loadFT converts the freshly factorized static U into the dynamic
// row+column store and resets the update sequence to the identity.
func (f *luFactor) loadFT() {
	m := f.m
	nnz := len(f.uIdx)
	f.rowCnt = grow(f.rowCnt, m)
	for k := 0; k < m; k++ {
		f.rowCnt[k] = 0
	}
	for _, k := range f.uIdx {
		f.rowCnt[k]++
	}
	st := &f.us
	st.reset(2*m, 2*nnz+4*m)
	for j := 0; j < m; j++ {
		st.place(j, int(f.uPtr[j+1]-f.uPtr[j])+2)
	}
	for k := 0; k < m; k++ {
		st.place(m+k, int(f.rowCnt[k])+2)
	}
	for j := 0; j < m; j++ {
		for t := f.uPtr[j]; t < f.uPtr[j+1]; t++ {
			k, v := f.uIdx[t], f.uVal[t]
			st.push(j, k, v)
			st.push(m+int(k), int32(j), v)
		}
	}
	f.uLive = nnz
	f.baseFill = nnz + m
	f.order = grow(f.order, m)
	f.seqPos = grow(f.seqPos, m)
	for t := 0; t < m; t++ {
		f.order[t], f.seqPos[t] = int32(t), int32(t)
	}
	f.vbuf = grow(f.vbuf, m)
	f.work = grow(f.work, m)
	f.wmark = grow(f.wmark, m)
	for i := 0; i < m; i++ {
		f.work[i] = 0
		f.wmark[i] = false
	}
}

// needRefactor reports whether the accumulated update fill has outgrown
// the factorization: live U entries plus eta entries past twice the
// post-factorization baseline (plus slack), or an eta count far beyond
// anything useful (garbage backstop).
func (f *luFactor) needRefactor() bool {
	if len(f.etaPos) >= 2*f.m+64 {
		return true
	}
	return f.uLive+f.m+len(f.etaIdx) > 2*f.baseFill+64
}

// ftran solves B·out = x. x is dense in original-row space and is zeroed
// on return; out is dense in basis-position space and fully overwritten.
// The pre-U-solve vector (the Forrest–Tomlin spike) is captured in vbuf for
// a possible ftUpdate of this column.
func (f *luFactor) ftran(x, out []float64) {
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
	// Permuted U solve, backward in sequence order: every column entry sits
	// at an earlier sequence position than its column.
	for t := f.m - 1; t >= 0; t-- {
		j := int(f.order[t])
		if out[j] == 0 {
			continue
		}
		v := out[j] / f.udiag[j]
		out[j] = v
		ci, cv := f.us.entries(j)
		for q, k := range ci {
			out[k] -= v * cv[q]
		}
	}
}

// saveSpike copies the pending Forrest–Tomlin spike — the pre-U-solve
// vector the most recent ftran captured for ftUpdate — into dst, so a
// caller can run another ftran against the factor (which overwrites the
// capture) and then restoreSpike before the update. dst must have length
// ≥ m.
func (f *luFactor) saveSpike(dst []float64) { copy(dst[:f.m], f.vbuf[:f.m]) }

// restoreSpike restores a spike saved by saveSpike as the pending
// Forrest–Tomlin update vector.
func (f *luFactor) restoreSpike(src []float64) { copy(f.vbuf[:f.m], src[:f.m]) }

// btran solves Bᵀ·out = c and, when c2 is non-nil, Bᵀ·out2 = c2 in the
// same pass: the dual simplex needs ρ = B⁻ᵀe_p and y = B⁻ᵀc_B at every
// pivot, and the dot-form solves below are bound by the latency of one
// floating-point accumulation chain per gathered factor column — two
// right-hand sides run two independent chains over entries loaded once, at
// each one's exact single-solve arithmetic. c and c2 are dense in
// basis-position space and zeroed on return; out and out2 are dense in
// original-row space and fully overwritten.
//
// A lone right-hand side (c2 nil: the y solve that opens a warm start and
// the one behind reduced-cost fixing) runs the second chain over the f.c2
// scratch instead of forking the loops. Nothing reads that chain's output,
// so its content cannot reach a caller; it is all zero regardless — the
// scratch is allocated zero and cleared when getRxScratch hands the
// workspace out, the Lᵀ loop re-zeroes the input half like any
// c, and the output half is the solve of 0 (TestSolvesMatchOracles checks
// it after every solve). Lone solves are 2 % of BTRAN calls on the planning
// stream (1 759 of 97 822 over 200 exact solves), and timed against a build
// that forks a single-chain loop for them they cost the same: 19–20 ms per
// 200 solves either way.
func (f *luFactor) btran(c, out, c2, out2 []float64) {
	f.nBtran++
	m := f.m
	if c2 == nil {
		f.c2 = grow(f.c2, 2*m)
		c2, out2 = f.c2[:m], f.c2[m:]
	} else {
		f.nBtran++
	}
	// Permuted Uᵀ solve, forward in sequence order (in place).
	for _, j := range f.order[:m] {
		s, s2 := c[j], c2[j]
		ci, cv := f.us.entries(int(j))
		for q, k := range ci {
			s -= cv[q] * c[k]
			s2 -= cv[q] * c2[k]
		}
		c[j], c2[j] = s/f.udiag[j], s2/f.udiag[j]
	}
	// Row-eta transposes in reverse creation order: Rᵀ = I − r·e_pᵀ scatters
	// −r·c[p] into the eliminated columns.
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		p := f.etaPos[e]
		if cp := c[p]; cp != 0 {
			for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
				c[f.etaIdx[t]] -= f.etaVal[t] * cp
			}
		}
		if cp := c2[p]; cp != 0 {
			for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
				c2[f.etaIdx[t]] -= f.etaVal[t] * cp
			}
		}
	}
	// Lᵀ solve (backward): s_k = t_k − Σ_{i} L[i,k]·s_{pinv[i]}. Each s_k goes
	// straight to its original row out[perm[k]], and that is where the
	// gather reads s_{pinv[i]} back from — as out[i], one indirection instead
	// of two: row i pivots after k, so it is already written. Restores the
	// zero invariant on c.
	for k := m - 1; k >= 0; k-- {
		s, s2 := c[k], c2[k]
		c[k], c2[k] = 0, 0
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			i := f.lIdx[t]
			s -= f.lVal[t] * out[i]
			s2 -= f.lVal[t] * out2[i]
		}
		r := f.perm[k]
		out[r], out2[r] = s, s2
	}
}

// ftUpdate replaces basis position p's column of U with the spike captured
// by the most recent ftran (the entering column, partially transformed
// through L and the prior row etas) and restores permuted triangularity
// the Forrest–Tomlin way: position p moves to the end of the sequence and
// its U row is eliminated against the rows now sequenced before it,
// recording the multipliers as one row eta R = I − e_p·rᵀ. alphaP is the
// fully transformed spike's pivot entry w_p, giving the exact-arithmetic
// prediction d_new = w_p·d_old for the new diagonal; disagreement beyond
// luDriftTol means the factorization has degraded. Returns false when the
// update is unsafe — the caller must refactorize (the store may be
// half-mutated then, which the rebuild discards).
func (f *luFactor) ftUpdate(p int, alphaP float64) bool {
	m := f.m
	dPred := alphaP * f.udiag[p]
	if math.Abs(dPred) < luSingTol {
		return false // pre-mutation: the factorization is still intact
	}
	st := &f.us
	// Drop column p: its entries also live in the row lines.
	ci, _ := st.entries(p)
	for _, k := range ci {
		st.removeWhere(m+int(k), int32(p))
	}
	f.uLive -= int(st.count[p])
	st.clear(p)
	// Scatter row p's off-diagonals into the elimination accumulator and
	// drop them from the column lines.
	ri, rv := st.entries(m + p)
	for q, j := range ri {
		f.work[j] = rv[q]
		f.wmark[j] = true
		st.removeWhere(int(j), int32(p))
	}
	f.uLive -= int(st.count[m+p])
	st.clear(m + p)
	// Insert the spike as the new column p. In the updated sequence p is
	// last, so every off-diagonal spike entry is above-diagonal.
	d := f.vbuf[p]
	for k := 0; k < m; k++ {
		v := f.vbuf[k]
		if k == p || v == 0 {
			continue
		}
		st.append(p, int32(k), v)
		st.append(m+k, int32(p), v)
		f.uLive++
	}
	// Move p to the end of the sequence, shifting the tail down one slot.
	t0 := int(f.seqPos[p])
	for t := t0; t < m-1; t++ {
		f.order[t] = f.order[t+1]
		f.seqPos[f.order[t]] = int32(t)
	}
	f.order[m-1] = int32(p)
	f.seqPos[p] = int32(m - 1)
	// Eliminate row p over the sequence positions ahead of it. Fill-in from
	// row j lands only at positions after j (triangularity), so one forward
	// scan visits every entry — including the spike's column-p entries,
	// which fold into the new diagonal d.
	etaStart := len(f.etaIdx)
	for t := t0; t < m-1; t++ {
		j := int(f.order[t])
		if !f.wmark[j] {
			continue
		}
		cj := f.work[j]
		f.work[j] = 0
		f.wmark[j] = false
		if cj == 0 {
			continue
		}
		r := cj / f.udiag[j]
		f.etaIdx = append(f.etaIdx, int32(j))
		f.etaVal = append(f.etaVal, r)
		rj, rjv := st.entries(m + j)
		for q, k := range rj {
			if int(k) == p {
				d -= r * rjv[q]
			} else if f.wmark[k] {
				f.work[k] -= r * rjv[q]
			} else {
				f.wmark[k] = true
				f.work[k] = -r * rjv[q]
			}
		}
	}
	if math.Abs(d) < luSingTol ||
		math.Abs(d-dPred) > luDriftTol*math.Max(1, math.Max(math.Abs(d), math.Abs(dPred))) {
		// Numerical drift: orphan the multipliers and have the caller
		// rebuild from the (already updated) basis.
		f.etaIdx = f.etaIdx[:etaStart]
		f.etaVal = f.etaVal[:etaStart]
		return false
	}
	f.udiag[p] = d
	if len(f.etaIdx) > etaStart {
		f.etaPos = append(f.etaPos, int32(p))
		f.etaPtr = append(f.etaPtr, int32(len(f.etaIdx)))
	}
	f.nUpdate++
	if fill := f.uLive + m + len(f.etaIdx); fill > f.peakFill {
		f.peakFill = fill
	}
	return true
}
