package controller

import (
	"fmt"
	"sort"

	"flexwan/internal/netconf"
)

// This file is the configuration push pipeline: the planner that
// coalesces every document destined for one device into a single
// batched RPC, handed to DevMgr.CallAll, which keeps the per-device
// pipelines in flight together. The restoration numbers motivated it —
// after PR 4 the CERNET drill spent ~5.1 s of a ~5.14 s recovery in the
// serial NETCONF push while detect and solve together cost ~3 ms — and the
// design keeps the chaos determinism contract: each device receives a fixed
// RPC sequence regardless of worker count, so seeded fault decisions
// (keyed by device, op, seq) are schedule-independent, and skip/error
// accounting is always reported in sorted device order.

// pushDoc is one configuration document bound for a device, tagged with
// the channel it materializes ("" for teardown and WSS documents) so the
// degraded-mode push can account skipped endpoints to pending channels.
type pushDoc struct {
	cfg     interface{}
	channel string
}

// pushPlan accumulates per-device document pipelines in insertion order.
// All documents for one device travel in a single edit-config-batch RPC
// (a lone document stays a plain edit-config), applied in order — a
// transponder's teardown-then-retune and a WSS's full passband set each
// cost one round trip.
type pushPlan struct {
	docs map[string][]pushDoc
}

func newPushPlan() *pushPlan {
	return &pushPlan{docs: make(map[string][]pushDoc)}
}

// add appends a document to the device's pipeline. channel names the
// live channel this document enables ("" otherwise).
func (p *pushPlan) add(deviceID string, cfg interface{}, channel string) {
	p.docs[deviceID] = append(p.docs[deviceID], pushDoc{cfg: cfg, channel: channel})
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

// pendingChannels lists, sorted and deduplicated, the channels that have
// a document on any failed device — the channels whose intended
// configuration is recorded but not fully pushed.
func (p *pushPlan) pendingChannels(errs map[string]error) []string {
	seen := make(map[string]bool)
	var out []string
	for id, docs := range p.docs {
		if errs[id] == nil {
			continue
		}
		for _, doc := range docs {
			if doc.channel != "" && !seen[doc.channel] {
				seen[doc.channel] = true
				out = append(out, doc.channel)
			}
		}
	}
	sort.Strings(out)
	return out
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

// executePush pushes every device's pipeline — a single document as a
// plain edit-config, several as one edit-config-batch — through
// DevMgr.CallAll and returns the per-device errors (successful devices
// are absent). Results are deterministic: each device sees exactly one RPC
// per attempt regardless of the window, and callers consume errors via the
// plan's sorted device order. Callers may hold c.mu — the engine only
// touches the DevMgr, which has its own locking.
func (c *Controller) executePush(p *pushPlan) map[string]error {
	out := make(map[string]error)
	reqs := make([]Request, 0, len(p.docs))
	for _, id := range p.devices() {
		docs := p.docs[id]
		if len(docs) == 1 {
			reqs = append(reqs, Request{id, netconf.OpEditConfig, docs[0].cfg, nil})
			continue
		}
		cfgs := make([]interface{}, len(docs))
		for i, d := range docs {
			cfgs[i] = d.cfg
		}
		batch, err := netconf.NewBatchEdit(cfgs...)
		if err != nil {
			out[id] = fmt.Errorf("controller: batching %d documents for %s: %w", len(docs), id, err)
			continue
		}
		reqs = append(reqs, Request{id, netconf.OpEditConfigBatch, batch, nil})
	}
	for i, err := range c.devmgr.CallAll(reqs, c.PushWorkers()) {
		if err != nil {
			out[reqs[i].ID] = err
		}
	}
	return out
}
