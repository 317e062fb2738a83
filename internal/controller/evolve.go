package controller

import (
	"fmt"
	"slices"
	"sort"

	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
)

// This file is §9 smooth evolution: demands grow, links come and go, and
// no live channel moves. Each operation runs under c.mu against a plan
// rebuilt from the live channels — the view fiber cuts are solved
// against — and touches only the devices it changes: growth stages and
// commits its change set the way Apply does, and RemoveLink pushes
// directly (DESIGN.md says why). The IP layer is copied on write: the
// controller adopts the changed copy, and the topology handed to New is
// never written.

// FiberUtilization is one fiber's spectrum occupancy.
type FiberUtilization struct {
	FiberID       string
	UsedGHz       float64
	TotalGHz      float64
	Fragmentation float64
}

// GrowDemand adds extraGbps of capacity to an IP link. Algorithm 1 places
// the new wavelengths around the live ones (plan.Extend); each gets a
// transponder pair, and the change set — those transponders and only the
// WSSes of the fibers the new channels cross — is staged and committed as
// Apply's is. It returns the new wavelengths. When the spectrum runs out
// first, the wavelengths that were placed are still pushed and returned,
// with an error naming the shortfall. A transponder pool too small for
// them, or a device that refuses or misses its document, fails the growth
// with nothing committed, and the link's demand stays as it was.
func (c *Controller) GrowDemand(linkID string, extraGbps int) ([]plan.Wavelength, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ip, i, err := c.ipLinkLocked(linkID)
	if err != nil {
		return nil, err
	}
	ip.Links[i].DemandGbps += extraGbps
	return c.growLocked(ip, linkID, extraGbps, "grow")
}

// AddLink introduces an IP link and provisions its demand the way
// GrowDemand grows one.
func (c *Controller) AddLink(l topology.IPLink) ([]plan.Wavelength, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ip := &topology.IPTopology{Links: slices.Clone(c.cfg.IP.Links)}
	if err := ip.AddLink(l); err != nil {
		return nil, err
	}
	return c.growLocked(ip, l.ID, l.DemandGbps, "add-link")
}

// growLocked places extraGbps more on linkID over the live occupancy,
// avoiding fibers marked down, then claims, stages and commits the new
// channels. ip is the IP layer with the change made; the controller adopts
// it once every device has staged its document. Callers hold c.mu.
func (c *Controller) growLocked(ip *topology.IPTopology, linkID string, extraGbps int, action string) ([]plan.Wavelength, error) {
	base, err := c.occupiedPlanLocked()
	if err != nil {
		return nil, err
	}
	optical := c.cfg.Optical
	if len(c.downFibers) > 0 {
		optical = optical.Without(c.cutLocked()...)
	}
	added, err := plan.Extend(c.planProblemLocked(optical, ip), base, linkID, extraGbps)
	if err != nil {
		return nil, err
	}
	chans, err := c.claimChannelsLocked(added)
	if err != nil {
		return nil, err
	}
	touched := make(map[string]bool)
	p, err := c.stageChannelsLocked(chans, touched)
	if err != nil {
		return nil, err
	}
	c.cfg.IP = ip
	err = c.commitChannelsLocked(p, chans)
	placed := 0
	for _, w := range added {
		placed += w.Mode.DataRateGbps
	}
	summary := fmt.Sprintf("link %s +%d Gbps: %d channels carrying %d Gbps; pushed %d transponders, %d WSS",
		linkID, extraGbps, len(added), placed, 2*len(chans), len(touched))
	c.logf("controller: %s", summary)
	c.recordLocked(action, summary)
	if err == nil && placed < extraGbps {
		err = fmt.Errorf("controller: link %s grew %d of %d Gbps: spectrum exhausted, %d Gbps short",
			linkID, placed, extraGbps, extraGbps-placed)
	}
	return added, err
}

// RemoveLink retires an IP link: its channels' transponders are disabled
// and go back to the pools, their passbands leave the documents of the
// fibers they crossed, and only those fibers' WSSes are pushed. It returns
// the number of transponder pairs freed. The intent changes even when a
// device does not answer; the first push failure is returned, and Repair
// converges a WSS that missed its document.
func (c *Controller) RemoveLink(linkID string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ip, i, err := c.ipLinkLocked(linkID)
	if err != nil {
		return 0, err
	}
	ip.Links = slices.Delete(ip.Links, i, i+1)
	var names []string
	for name, st := range c.channels {
		if st.wavelength.LinkID == linkID {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	touched := make(map[string]bool)
	txPlan := newPushPlan()
	for _, name := range names {
		st := c.teardownLocked(name, txPlan, touched)
		c.devmgr.ReleaseTransponder(st.txA)
		c.devmgr.ReleaseTransponder(st.txB)
	}
	c.cfg.IP = ip

	// Lasers off first, then the passbands close.
	var firstErr error
	errs := c.executePush(txPlan)
	for _, id := range txPlan.devices() {
		if errs[id] != nil && firstErr == nil {
			firstErr = fmt.Errorf("controller: disabling %s: %w", id, errs[id])
		}
	}
	if err := c.pushWSSLocked(touched); err != nil && firstErr == nil {
		firstErr = err
	}
	summary := fmt.Sprintf("link %s retired: %d channels; pushed %d transponders, %d WSS",
		linkID, len(names), len(txPlan.docs), len(touched))
	c.logf("controller: %s", summary)
	c.recordLocked("remove-link", summary)
	return len(names), firstErr
}

// ipLinkLocked returns a copy of the IP layer and the index of linkID in
// it. Callers hold c.mu.
func (c *Controller) ipLinkLocked(linkID string) (*topology.IPTopology, int, error) {
	i := slices.IndexFunc(c.cfg.IP.Links, func(l topology.IPLink) bool { return l.ID == linkID })
	if i < 0 {
		return nil, 0, fmt.Errorf("controller: unknown IP link %s", linkID)
	}
	return &topology.IPTopology{Links: slices.Clone(c.cfg.IP.Links)}, i, nil
}

// WhatIfCut answers what restoration would revive if the given fibers were
// cut now, on top of any already down, without changing the controller's
// state or touching a device (§4.4: "the restoration plan for each fiber
// cut scenario can be produced offline"). The result's Originals point
// into a plan built for this call alone, so no later evolution step
// rewrites them.
func (c *Controller) WhatIfCut(fiberIDs ...string) (*restore.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return restore.Solve(c.restoreProblemLocked(restore.Scenario{ID: "what-if", CutFibers: c.cutLocked(fiberIDs...)}))
}

// Utilization reports every fiber's spectrum occupancy by the live
// channels, sorted by fiber ID — the view an operator watches to decide
// when to light new fiber (§3.2).
func (c *Controller) Utilization() ([]FiberUtilization, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.occupiedPlanLocked()
	if err != nil {
		return nil, err
	}
	fibers := c.cfg.Optical.Fibers()
	out := make([]FiberUtilization, 0, len(fibers))
	for _, f := range fibers {
		m := res.Allocator.FiberMap(spectrum.FiberID(f.ID))
		out = append(out, FiberUtilization{
			FiberID:       f.ID,
			UsedGHz:       float64(m.UsedPixels()) * c.cfg.Grid.PixelGHz,
			TotalGHz:      c.cfg.Grid.WidthGHz(),
			Fragmentation: m.Fragmentation(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FiberID < out[j].FiberID })
	return out, nil
}

// occupiedPlanLocked is currentPlanLocked with every live channel's
// spectrum replayed into the plan's allocator: the occupancy plan.Extend
// places new wavelengths around. Callers hold c.mu.
func (c *Controller) occupiedPlanLocked() (*plan.Result, error) {
	res := c.currentPlanLocked()
	for _, w := range res.Wavelengths {
		if err := res.Allocator.AllocatePath(w.Path, w.Interval); err != nil {
			return nil, fmt.Errorf("controller: replaying live %s channel at %v: %w", w.LinkID, w.Interval, err)
		}
	}
	return res, nil
}
