package plan

import (
	"fmt"
	"slices"
	"sort"

	"flexwan/internal/topology"
)

// Extend provisions additional capacity for one IP link on top of an
// existing plan, without disturbing any provisioned wavelength: the
// incremental-growth operation behind FlexWAN's smooth backbone evolution
// (§9 — demands grow monthly; replanning the whole network would churn
// live channels). New wavelengths are chosen exactly as Solve chooses
// them and placed in the plan's live allocator, so all Algorithm 1
// constraints keep holding; Verify accepts the extended result.
//
// The result is mutated in place; the newly provisioned wavelengths are
// also returned. When the addition cannot be fully served the link is
// recorded in r.Unserved and the partial wavelengths are kept (they carry
// real capacity), mirroring Solve's semantics.
func Extend(p Problem, r *Result, linkID string, extraGbps int) ([]Wavelength, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	if r == nil || r.Allocator == nil {
		return nil, fmt.Errorf("plan: Extend needs a result produced by Solve")
	}
	if extraGbps <= 0 {
		return nil, fmt.Errorf("plan: nonpositive capacity addition %d", extraGbps)
	}
	paths, ok := r.Paths[linkID]
	if !ok {
		// The link may be new since the base plan: compute its paths.
		var link *topology.IPLink
		for i := range p.IP.Links {
			if p.IP.Links[i].ID == linkID {
				link = &p.IP.Links[i]
				break
			}
		}
		if link == nil {
			return nil, fmt.Errorf("plan: unknown IP link %s", linkID)
		}
		ps := p.Optical.KShortestPaths(link.A, link.B, p.k())
		if len(ps) == 0 {
			return nil, fmt.Errorf("plan: no optical path for IP link %s", linkID)
		}
		if r.Paths == nil {
			r.Paths = make(map[string][]topology.Path)
		}
		r.Paths[linkID] = ps
		paths = ps
	}

	pl := newPlacer(p, r)
	pl.link(linkID, paths)
	var added []Wavelength
	remaining := extraGbps
	for remaining > 0 {
		w, ok := pl.placeOne(remaining)
		if !ok {
			break
		}
		r.Wavelengths = append(r.Wavelengths, w)
		added = append(added, w)
		remaining -= w.Mode.DataRateGbps
	}
	lp := r.PerLink[linkID]
	lp.DemandGbps += extraGbps
	for _, w := range added {
		lp.Wavelengths++
		lp.ProvisionedGbps += w.Mode.DataRateGbps
	}
	r.PerLink[linkID] = lp
	if remaining > 0 {
		found := false
		for _, id := range r.Unserved {
			if id == linkID {
				found = true
				break
			}
		}
		if !found {
			r.Unserved = append(r.Unserved, linkID)
			sort.Strings(r.Unserved)
		}
	}
	return added, nil
}

// Decommission releases all wavelengths of an IP link, returning their
// spectrum to the allocator — the tear-down half of backbone evolution.
// It returns the number of transponder pairs freed. When a wavelength will
// not release, the tear-down stops there with the plan consistent: those
// already released are gone, the one named in the error and every other
// wavelength stay in their order, and the link keeps its entry in PerLink,
// short of what was released (and is listed unserved if that leaves it
// under its demand).
func Decommission(r *Result, linkID string) (int, error) {
	if r == nil || r.Allocator == nil {
		return 0, fmt.Errorf("plan: Decommission needs a result produced by Solve")
	}
	var (
		kept      = r.Wavelengths[:0]
		freed     int
		freedGbps int
		err       error
	)
	for i, w := range r.Wavelengths {
		if w.LinkID != linkID {
			kept = append(kept, w)
			continue
		}
		if err = r.Allocator.ReleasePath(w.Path, w.Interval); err != nil {
			err = fmt.Errorf("plan: releasing wavelength %d (%s, %v at %v): %w", i, linkID, w.Mode, w.Interval, err)
			kept = append(kept, r.Wavelengths[i:]...)
			break
		}
		freed++
		freedGbps += w.Mode.DataRateGbps
	}
	clear(r.Wavelengths[len(kept):])
	r.Wavelengths = kept
	if err != nil {
		lp := r.PerLink[linkID]
		lp.Wavelengths -= freed
		lp.ProvisionedGbps -= freedGbps
		r.PerLink[linkID] = lp
		if !lp.Served() && !slices.Contains(r.Unserved, linkID) {
			r.Unserved = append(r.Unserved, linkID)
			sort.Strings(r.Unserved)
		}
		return freed, err
	}
	delete(r.PerLink, linkID)
	remaining := r.Unserved[:0]
	for _, id := range r.Unserved {
		if id != linkID {
			remaining = append(remaining, id)
		}
	}
	r.Unserved = remaining
	return freed, nil
}
