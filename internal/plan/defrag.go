package plan

import (
	"fmt"
	"sort"
)

// Defragment compacts the plan's spectrum: each wavelength is re-placed
// at the lowest-indexed interval available on its path, repeatedly, until
// no wavelength can move down. Years of growth and decommissioning
// (§9's evolution) fragment the C-band into slivers no wide channel fits;
// periodic defragmentation restores contiguous headroom. Every move is a
// make-before-break retune: the new interval is claimed before the old
// one is released, so a concurrent reader of the allocator never sees the
// channel unplaced, and each intermediate state remains conflict-free and
// consistent.
//
// It returns the number of wavelengths moved. The result remains Verify-
// clean afterwards.
func Defragment(p Problem, r *Result) (int, error) {
	if err := validate(p); err != nil {
		return 0, err
	}
	if r == nil || r.Allocator == nil {
		return 0, fmt.Errorf("plan: Defragment needs a result produced by Solve")
	}
	moves := 0
	// Lowest-first processing lets early moves open space for later ones.
	for pass := 0; pass < 16; pass++ {
		order := make([]int, len(r.Wavelengths))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return r.Wavelengths[order[a]].Interval.Start < r.Wavelengths[order[b]].Interval.Start
		})
		movedThisPass := 0
		for _, i := range order {
			w := r.Wavelengths[i]
			// Make-before-break needs the new interval to be free while
			// the old one is still held; Find naturally excludes the
			// channel's own pixels, so only strictly disjoint, lower
			// placements are candidates.
			target, err := r.Allocator.FindPath(w.Path, w.Interval.Count, p.Fit)
			if err != nil || target.Start >= w.Interval.Start {
				continue
			}
			if err := r.Allocator.AllocatePath(w.Path, target); err != nil {
				continue // raced by an earlier move in this pass
			}
			if err := r.Allocator.ReleasePath(w.Path, w.Interval); err != nil {
				// Undo the make half; state stays as before.
				_ = r.Allocator.ReleasePath(w.Path, target)
				return moves, fmt.Errorf("plan: defragment break failed: %w", err)
			}
			r.Wavelengths[i].Interval = target
			moves++
			movedThisPass++
		}
		if movedThisPass == 0 {
			break
		}
	}
	return moves, nil
}
