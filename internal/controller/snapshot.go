package controller

import (
	"encoding/json"
	"fmt"
	"sort"

	"flexwan/internal/devmodel"
	"flexwan/internal/plan"
)

// Snapshot is the controller's durable state: everything a standby
// replica needs to take over. The paper's controller is cloud-deployed
// with multiple geo-disjoint backups (§4.4, fault tolerance); the
// snapshot is the replication payload. It is JSON-serializable.
type Snapshot struct {
	Channels   map[string]ChannelSnapshot    `json:"channels"`
	WSSConfig  map[string]devmodel.WSSConfig `json:"wss-config"`
	DownFibers []string                      `json:"down-fibers"`
	Seq        map[string]int                `json:"seq"`
}

// ChannelSnapshot is one live channel and its hardware binding.
type ChannelSnapshot struct {
	Wavelength plan.Wavelength `json:"wavelength"`
	TxA        string          `json:"tx-a"`
	TxB        string          `json:"tx-b"`
}

// Snapshot captures the controller's current state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Controller) snapshotLocked() Snapshot {
	s := Snapshot{
		Channels:  make(map[string]ChannelSnapshot, len(c.channels)),
		WSSConfig: make(map[string]devmodel.WSSConfig, len(c.wssConfig)),
		Seq:       make(map[string]int, len(c.seq)),
	}
	for name, st := range c.channels {
		s.Channels[name] = ChannelSnapshot{Wavelength: st.wavelength, TxA: st.txA, TxB: st.txB}
	}
	for fiber, cfg := range c.wssConfig {
		s.WSSConfig[fiber] = devmodel.WSSConfig{
			Passbands: append([]devmodel.Passband(nil), cfg.Passbands...),
		}
	}
	for f := range c.downFibers {
		s.DownFibers = append(s.DownFibers, f)
	}
	sort.Strings(s.DownFibers)
	for link, n := range c.seq {
		s.Seq[link] = n
	}
	return s
}

// MarshalSnapshot encodes the snapshot for replication.
func MarshalSnapshot(s Snapshot) ([]byte, error) { return json.Marshal(s) }

// UnmarshalSnapshot decodes a replicated snapshot.
func UnmarshalSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	err := json.Unmarshal(data, &s)
	return s, err
}

// LoadSnapshot adopts a snapshot on a (fresh) controller whose DevMgr has
// the fleet registered — the standby-takeover path. Transponder
// assignments are re-claimed from the pools; the controller's intended
// state matches the primary's, so a subsequent Audit against the live
// devices confirms the takeover. The load is all-or-nothing: a refused
// snapshot — one naming hardware or a fiber the standby does not have —
// releases every transponder it claimed and adopts nothing, so the standby
// can still take a good one. A controller that holds any state refuses
// every snapshot: loads never merge.
func (c *Controller) LoadSnapshot(s Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.channels)+len(c.downFibers)+len(c.wssConfig)+len(c.seq) != 0 {
		return fmt.Errorf("controller: LoadSnapshot on a non-empty controller")
	}
	num := c.cfg.Optical.Numbering()
	for fiber := range s.WSSConfig {
		if _, ok := num.Lookup(fiber); !ok {
			return fmt.Errorf("controller: snapshot configures a WSS on unknown fiber %s", fiber)
		}
	}
	names := make([]string, 0, len(s.Channels))
	for name := range s.Channels {
		names = append(names, name)
	}
	sort.Strings(names)
	var claimed []string
	refuse := func(err error) error {
		for _, tx := range claimed {
			c.devmgr.ReleaseTransponder(tx)
		}
		clear(c.channels)
		return err
	}
	for _, name := range names {
		ch := s.Channels[name]
		if ch.Wavelength.Path == nil || ch.Wavelength.Mode == nil {
			return refuse(fmt.Errorf("controller: snapshot channel %s has no path or mode", name))
		}
		// A decoded path knows its fibers by ID only: number a copy in this
		// controller's topology, so that replaying it claims by index. A
		// fiber the topology does not have refuses the snapshot.
		if ch.Wavelength.Path.Numbering != num {
			path := *ch.Wavelength.Path
			if !c.cfg.Optical.Resolve(&path) {
				return refuse(fmt.Errorf("controller: snapshot channel %s runs over a fiber the topology does not have: %v",
					name, path.Fibers))
			}
			ch.Wavelength.Path = &path
		}
		for _, tx := range []string{ch.TxA, ch.TxB} {
			if err := c.devmgr.ClaimSpecific(tx, name); err != nil {
				return refuse(fmt.Errorf("controller: reclaiming %s for %s: %w", tx, name, err))
			}
			claimed = append(claimed, tx)
		}
		c.channels[name] = &channelState{wavelength: ch.Wavelength, txA: ch.TxA, txB: ch.TxB}
	}
	for fiber, cfg := range s.WSSConfig {
		c.wssConfig[fiber] = devmodel.WSSConfig{
			Passbands: append([]devmodel.Passband(nil), cfg.Passbands...),
		}
	}
	for _, f := range s.DownFibers {
		c.downFibers[f] = true
	}
	for link, n := range s.Seq {
		c.seq[link] = n
	}
	c.recordLocked("load", fmt.Sprintf("adopted snapshot: %d channels, %d down fibers",
		len(c.channels), len(c.downFibers)))
	return nil
}

// Repair re-asserts the controller's intended configuration on every
// device: transponder pairs get their channel document again and each
// fiber's WSS gets the full passband set. Combined with Audit this is the
// paper's zero-touch misconnection recovery (§9): when a device drifts —
// a field tech re-patches a port, a vendor controller overwrites a
// passband — the centralized intent wins without a site visit. It
// returns the channels that were found inconsistent before the repair. A
// nil error means a read-back audit found the fleet clean, before or after
// the re-push.
func (c *Controller) Repair() ([]string, error) {
	before, err := c.Audit()
	if err != nil {
		return nil, err
	}
	if before.Clean() {
		return nil, nil
	}
	c.mu.Lock()
	names := make([]string, 0, len(c.channels))
	for name := range c.channels {
		names = append(names, name)
	}
	sort.Strings(names)
	// Re-assert intent through the same engine as the push path: every
	// endpoint's channel document, one edit-config per device, fanned out
	// concurrently.
	txPlan := newPushPlan()
	for _, name := range names {
		st := c.channels[name]
		cfg := transponderConfig(st.wavelength, name)
		txPlan.add(st.txA, cfg, name)
		txPlan.add(st.txB, cfg, name)
	}
	errs := c.executePush(txPlan)
	for _, id := range txPlan.devices() {
		if errs[id] != nil {
			c.mu.Unlock()
			return before.Inconsistencies, fmt.Errorf("controller: repairing %s: %w", id, errs[id])
		}
	}
	err = c.pushWSSLocked(nil)
	c.mu.Unlock()
	if err != nil {
		return before.Inconsistencies, err
	}
	after, err := c.Audit()
	if err != nil {
		return before.Inconsistencies, err
	}
	if !after.Clean() {
		return before.Inconsistencies, fmt.Errorf("controller: repair did not converge: %+v", after)
	}
	c.logf("controller: repaired %d inconsistent channels", len(before.Inconsistencies))
	c.record("repair", fmt.Sprintf("repaired %d inconsistent channels", len(before.Inconsistencies)))
	return before.Inconsistencies, nil
}
