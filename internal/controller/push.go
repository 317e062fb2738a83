package controller

import (
	"fmt"
	"slices"
	"sort"

	"flexwan/internal/device"
	"flexwan/internal/netconf"
)

// This file is the configuration push pipeline: the planner that keeps
// one document per device — documents are absolute, so the last one added
// is the state the device must end in — handed to DevMgr.CallAll, which
// keeps every device's RPC in flight together. A change set (Apply,
// growth) goes out as candidate rounds (candidateRound); restoration,
// Repair and RemoveLink push directly (executePush). The restoration
// numbers motivated it — a serial push once took ~5.1 s of the CERNET
// drill's ~5.14 s recovery while detect and solve together cost ~3 ms —
// and the design keeps the chaos determinism contract: each device
// receives a fixed RPC sequence regardless of worker count, so seeded
// fault decisions (keyed by device, op, seq) are schedule-independent,
// and skip/error accounting is always reported in sorted device order.

// pushDoc is one configuration document bound for a device, tagged with
// the channel it materializes ("" for teardown and WSS documents) so the
// degraded-mode push can account skipped endpoints to pending channels.
type pushDoc struct {
	cfg     interface{}
	channel string
}

// pushPlan holds the one document each device is sent: a transponder
// torn down and retuned in the same change is sent only its retune, and
// a WSS its fiber's full passband set.
type pushPlan struct {
	docs map[string]pushDoc
}

func newPushPlan() *pushPlan {
	return &pushPlan{docs: make(map[string]pushDoc)}
}

// add sets the device's document, replacing any added before. channel
// names the live channel this document enables ("" otherwise).
func (p *pushPlan) add(deviceID string, cfg interface{}, channel string) {
	p.docs[deviceID] = pushDoc{cfg: cfg, channel: channel}
}

// devices returns the planned device IDs in sorted order — the
// deterministic iteration order for dispatch and error accounting.
func (p *pushPlan) devices() []string {
	out := make([]string, 0, len(p.docs))
	for id := range p.docs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// pendingChannels lists, sorted and deduplicated, the channels whose
// document went to a failed device — the channels whose intended
// configuration is recorded but not fully pushed.
func (p *pushPlan) pendingChannels(errs map[string]error) []string {
	var out []string
	for id, doc := range p.docs {
		if errs[id] != nil && doc.channel != "" {
			out = append(out, doc.channel)
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// SetPushWorkers bounds the configuration push: n > 1 keeps up to n device
// pipelines in flight, n == 1 is the legacy serial path (devices pushed
// one at a time in sorted order — the baseline the chaos drills compare
// event logs against), and n <= 0 (the default) keeps every
// device's pipeline in flight at once. Pushes are IO-bound waits on device
// RPCs, so the window is not CPU-capped.
func (c *Controller) SetPushWorkers(n int) {
	c.pushWorkers.Store(int64(n))
}

// PushWorkers returns the configured push window (0 = every device in
// flight).
func (c *Controller) PushWorkers() int {
	return int(c.pushWorkers.Load())
}

// executePush sends every device its document as one edit-config through
// DevMgr.CallAll and returns the per-device errors (successful devices
// are absent). Results are deterministic: each device sees exactly one RPC
// per attempt regardless of the window, and callers consume errors via the
// plan's sorted device order. Callers may hold c.mu — the engine only
// touches the DevMgr, which has its own locking.
func (c *Controller) executePush(p *pushPlan) map[string]error {
	ids := p.devices()
	reqs := make([]Request, len(ids))
	for i, id := range ids {
		reqs[i] = Request{id, netconf.OpEditConfig, p.docs[id].cfg, nil}
	}
	out := make(map[string]error)
	for i, err := range c.devmgr.CallAll(reqs, c.PushWorkers()) {
		if err != nil {
			out[ids[i]] = err
		}
	}
	return out
}

// candidateRound sends op to every device of p in one DevMgr.CallAll round,
// in sorted device order under the push window, and returns the first
// failure in that order. edit-candidate carries the device's one
// document; commit and discard carry none. Callers may hold c.mu — the
// round only touches the DevMgr.
func (c *Controller) candidateRound(p *pushPlan, op string) error {
	ids := p.devices()
	reqs := make([]Request, len(ids))
	for i, id := range ids {
		reqs[i] = Request{ID: id, Op: op}
		if op == device.OpEditCandidate {
			reqs[i].In = p.docs[id].cfg
		}
	}
	for i, err := range c.devmgr.CallAll(reqs, c.PushWorkers()) {
		if err != nil {
			return fmt.Errorf("controller: %s on %s: %w", op, ids[i], err)
		}
	}
	return nil
}
