package chaos

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"flexwan/internal/device"
	"flexwan/internal/netconf"
)

// FaultConfig sets per-RPC fault probabilities. Each armed RPC rolls the
// fault kinds in a fixed priority order (reset, drop-request,
// drop-reply, delay); at most one fault fires per RPC.
type FaultConfig struct {
	// ResetProb closes the management connection mid-RPC.
	ResetProb float64
	// DropRequestProb discards the RPC before execution: the device
	// never sees it and the controller times out.
	DropRequestProb float64
	// DropReplyProb executes the RPC but suppresses the reply — the
	// nasty case, where a retried commit must be idempotent.
	DropReplyProb float64
	// DelayProb stalls the RPC by Delay before handling it.
	DelayProb float64
	// Delay is the injected stall (default 10ms). Keep it under the
	// client's call timeout or a delay degenerates into a drop.
	Delay time.Duration
	// Ops restricts injection to these RPC operations; nil means the
	// configuration-plane default (get-config, edit-config,
	// edit-candidate, commit, discard). Telemetry's get-state is
	// deliberately outside the default set: poll counts vary with
	// timing, and faulting them would make the event log
	// schedule-dependent. The hello is outside it too — redial counts
	// depend on which retries the faults above force.
	Ops []string
}

func defaultFaultOps() []string {
	return []string{
		netconf.OpGetConfig, netconf.OpEditConfig,
		device.OpEditCandidate, device.OpCommit, device.OpDiscard,
	}
}

// Injector decides, per RPC, whether to inject a fault. Decisions are
// pure functions of (seed, device, op, sequence number), so a drill
// replayed with the same seed injects the same faults at the same
// points in each device's RPC stream regardless of scheduling.
type Injector struct {
	seed int64
	cfg  FaultConfig
	log  *Log
	ops  map[string]bool

	mu    sync.Mutex
	armed bool
	seq   map[seqKey]int
	count int
}

type seqKey struct{ device, op string }

// NewInjector builds an injector for the seed. Injected faults are
// recorded into log (which may be nil).
func NewInjector(seed int64, cfg FaultConfig, log *Log) *Injector {
	ops := cfg.Ops
	if ops == nil {
		ops = defaultFaultOps()
	}
	m := make(map[string]bool, len(ops))
	for _, op := range ops {
		m[op] = true
	}
	return &Injector{seed: seed, cfg: cfg, log: log, ops: m, seq: make(map[seqKey]int)}
}

// Arm starts injecting. Sequence counters keep advancing across
// arm/disarm cycles, so a drill's phases never reuse a decision point.
func (in *Injector) Arm() {
	in.mu.Lock()
	in.armed = true
	in.mu.Unlock()
}

// Disarm stops injecting; the bound servers handle RPCs normally.
func (in *Injector) Disarm() {
	in.mu.Lock()
	in.armed = false
	in.mu.Unlock()
}

// Injections returns how many faults have fired.
func (in *Injector) Injections() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.count
}

// Bind installs the injector on a device's management server. All of a
// testbed's servers share one injector, keyed by device ID.
func (in *Injector) Bind(deviceID string, srv *netconf.Server) {
	srv.SetInterceptor(func(op string) netconf.FaultDecision {
		return in.decide(deviceID, op)
	})
}

// hash01 maps (seed, device, op, seq, kind) to a uniform value in
// [0, 1) — the schedule-independent replacement for a shared RNG.
func hash01(seed int64, deviceID, op string, seq int, kind string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%s", seed, deviceID, op, seq, kind)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

func (in *Injector) decide(deviceID, op string) netconf.FaultDecision {
	in.mu.Lock()
	if !in.armed || !in.ops[op] {
		in.mu.Unlock()
		return netconf.FaultDecision{}
	}
	k := seqKey{deviceID, op}
	seq := in.seq[k]
	in.seq[k] = seq + 1
	in.mu.Unlock()

	roll := func(kind string) float64 { return hash01(in.seed, deviceID, op, seq, kind) }
	var d netconf.FaultDecision
	var kind string
	switch {
	case roll("reset") < in.cfg.ResetProb:
		d.Fault, kind = netconf.FaultReset, "reset"
	case roll("drop-request") < in.cfg.DropRequestProb:
		d.Fault, kind = netconf.FaultDropRequest, "drop-request"
	case roll("drop-reply") < in.cfg.DropReplyProb:
		d.Fault, kind = netconf.FaultDropReply, "drop-reply"
	case roll("delay") < in.cfg.DelayProb:
		d.Delay, kind = in.cfg.Delay, "delay"
		if d.Delay <= 0 {
			d.Delay = 10 * time.Millisecond
		}
	default:
		return netconf.FaultDecision{}
	}
	in.mu.Lock()
	in.count++
	in.mu.Unlock()
	if in.log != nil {
		in.log.fault(Event{Kind: "fault", Device: deviceID, Op: op, Seq: seq, Fault: kind})
	}
	return d
}
