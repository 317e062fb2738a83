package spectrum

// boolMap is the per-pixel []bool occupancy map the bitset Map replaced,
// kept as the differential oracle for FuzzMapOperations.
type boolMap struct {
	grid Grid
	used []bool
	free int
}

func newBoolMap(g Grid) *boolMap {
	return &boolMap{grid: g, used: make([]bool, g.Pixels), free: g.Pixels}
}

func (m *boolMap) FreePixels() int { return m.free }
func (m *boolMap) UsedPixels() int { return m.grid.Pixels - m.free }

func (m *boolMap) Used(w int) bool {
	if w < 0 || w >= len(m.used) {
		return true
	}
	return m.used[w]
}

func (m *boolMap) CanPlace(iv Interval) bool {
	if !iv.Valid(m.grid) {
		return false
	}
	for w := iv.Start; w < iv.End(); w++ {
		if m.used[w] {
			return false
		}
	}
	return true
}

func (m *boolMap) Place(iv Interval) bool {
	if !m.CanPlace(iv) {
		return false
	}
	for w := iv.Start; w < iv.End(); w++ {
		m.used[w] = true
	}
	m.free -= iv.Count
	return true
}

func (m *boolMap) Release(iv Interval) bool {
	if !iv.Valid(m.grid) {
		return false
	}
	for w := iv.Start; w < iv.End(); w++ {
		if !m.used[w] {
			return false
		}
	}
	for w := iv.Start; w < iv.End(); w++ {
		m.used[w] = false
	}
	m.free += iv.Count
	return true
}

func (m *boolMap) FirstFit(count int) (Interval, bool) {
	if count <= 0 || count > m.grid.Pixels {
		return Interval{}, false
	}
	run := 0
	for w := 0; w < m.grid.Pixels; w++ {
		if m.used[w] {
			run = 0
			continue
		}
		run++
		if run == count {
			return Interval{Start: w - count + 1, Count: count}, true
		}
	}
	return Interval{}, false
}

func (m *boolMap) BestFit(count int) (Interval, bool) {
	if count <= 0 || count > m.grid.Pixels {
		return Interval{}, false
	}
	bestStart, bestLen := -1, m.grid.Pixels+1
	for _, r := range m.FreeRuns() {
		if r.Count >= count && r.Count < bestLen {
			bestStart, bestLen = r.Start, r.Count
		}
	}
	if bestStart < 0 {
		return Interval{}, false
	}
	return Interval{Start: bestStart, Count: count}, true
}

func (m *boolMap) FreeRuns() []Interval {
	var runs []Interval
	w := 0
	for w < m.grid.Pixels {
		if m.used[w] {
			w++
			continue
		}
		start := w
		for w < m.grid.Pixels && !m.used[w] {
			w++
		}
		runs = append(runs, Interval{Start: start, Count: w - start})
	}
	return runs
}

func (m *boolMap) Clone() *boolMap {
	c := &boolMap{grid: m.grid, used: make([]bool, len(m.used)), free: m.free}
	copy(c.used, m.used)
	return c
}
