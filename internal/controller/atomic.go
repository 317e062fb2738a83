package controller

import (
	"fmt"

	"flexwan/internal/device"
	"flexwan/internal/plan"
)

// ApplyAtomic pushes a planning result through the NETCONF-style
// candidate/commit protocol: every device first validates and *stages*
// its configuration document; only when the whole fleet has accepted does
// the controller commit. If any device rejects — a fixed-grid vendor
// refusing an off-grid passband, a BVT refusing a spacing change — all
// staged documents are discarded and neither hardware nor controller
// state changes. This is the multi-vendor safety property §4.3 needs
// when a change set spans devices with different capabilities.
func (c *Controller) ApplyAtomic(res *plan.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()

	// 1. Claim and record the intended change set; a refusal below puts
	// the sequence numbers, the passband intent and the pools back.
	before := c.snapshotLocked()
	chans, _, err := c.claimChannelsLocked(res.Wavelengths)
	if err != nil {
		c.seq = before.Seq
		return err
	}
	rollback := func() {
		for _, ch := range chans {
			c.devmgr.ReleaseTransponder(ch.txA)
			c.devmgr.ReleaseTransponder(ch.txB)
		}
		c.seq, c.wssConfig = before.Seq, before.WSSConfig
	}
	type edit struct {
		deviceID string
		cfg      interface{}
	}
	var edits []edit
	for _, ch := range chans {
		cfg := transponderConfig(ch.w, ch.name)
		edits = append(edits, edit{ch.txA, cfg}, edit{ch.txB, cfg})
		c.addPassbandsLocked(ch.name, ch.w, nil)
	}
	for _, fiber := range c.wssFibersLocked(nil) {
		wssID, cfg, err := c.wssDocLocked(fiber)
		if err != nil {
			rollback()
			return err
		}
		edits = append(edits, edit{wssID, cfg})
	}

	// 2. Stage everywhere; discard everything on the first rejection.
	var staged []string
	for _, e := range edits {
		if err := c.devmgr.Call(e.deviceID, device.OpEditCandidate, e.cfg, nil); err != nil {
			for _, id := range staged {
				_ = c.devmgr.Call(id, device.OpDiscard, nil, nil)
			}
			rollback()
			return fmt.Errorf("controller: %s rejected staged config: %w", e.deviceID, err)
		}
		staged = append(staged, e.deviceID)
	}

	// 3. Commit. After a successful network-wide stage, a commit failure
	// indicates a device raced its own running state; surface it (the
	// audit/repair loop will reconverge the stragglers).
	var commitErr error
	for _, id := range staged {
		if err := c.devmgr.Call(id, device.OpCommit, nil, nil); err != nil && commitErr == nil {
			commitErr = fmt.Errorf("controller: commit on %s: %w", id, err)
		}
	}

	// 4. Adopt the channels.
	for _, ch := range chans {
		c.channels[ch.name] = &channelState{wavelength: ch.w, txA: ch.txA, txB: ch.txB}
	}
	c.logf("controller: atomically applied %d wavelengths (%d staged documents)",
		len(res.Wavelengths), len(edits))
	return commitErr
}
