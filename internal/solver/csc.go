package solver

// cscMatrix is the constraint matrix A in compressed-sparse-column form:
// one column per structural (model) variable over the model's constraint
// rows. Slack columns are not stored — every row r carries an implicit
// unit slack column with index cols+r whose bounds encode the relation
// (LE: [0,∞), GE: (−∞,0], EQ: [0,0]) — so the memory footprint is exactly
// nonzero-proportional. Built once per model on first use and shared
// read-only by every solve of the model; the revised simplex never
// forms a dense row or column of it.
type cscMatrix struct {
	rows, cols int
	colPtr     []int32 // len cols+1; column j occupies [colPtr[j], colPtr[j+1])
	rowIdx     []int32 // constraint row of each stored nonzero
	val        []float64
	rhs        []float64 // per-row right-hand side
	rel        []Rel     // per-row relation (fixes the slack bounds)
}

// cscBuild constructs the CSC matrix from the model's constraints.
// AddConstraint already merged duplicate variables and dropped zero
// coefficients, so every stored entry is a true nonzero.
func cscBuild(m *Model) *cscMatrix {
	rows, cols := len(m.cons), len(m.vars)
	nnz := 0
	for ci := range m.cons {
		nnz += len(m.cons[ci].terms)
	}
	c := &cscMatrix{
		rows:   rows,
		cols:   cols,
		colPtr: make([]int32, cols+1),
		rowIdx: make([]int32, nnz),
		val:    make([]float64, nnz),
		rhs:    make([]float64, rows),
		rel:    make([]Rel, rows),
	}
	// Count per column, prefix-sum into colPtr, then fill. Row order within
	// a column is ascending because constraints are scanned in order.
	for ci := range m.cons {
		for _, t := range m.cons[ci].terms {
			c.colPtr[t.Var+1]++
		}
	}
	for j := 0; j < cols; j++ {
		c.colPtr[j+1] += c.colPtr[j]
	}
	fill := make([]int32, cols)
	copy(fill, c.colPtr[:cols])
	for ci := range m.cons {
		con := &m.cons[ci]
		c.rhs[ci] = con.rhs
		c.rel[ci] = con.rel
		for _, t := range con.terms {
			k := fill[t.Var]
			c.rowIdx[k] = int32(ci)
			c.val[k] = t.Coef
			fill[t.Var]++
		}
	}
	return c
}

// cscMatrixOf returns the model's cached CSC matrix, building it on first
// use. Safe for concurrent callers; the result is immutable.
func (m *Model) cscMatrixOf() *cscMatrix {
	m.cscOnce.Do(func() { m.csc = cscBuild(m) })
	return m.csc
}
