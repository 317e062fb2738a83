// Package chaos is FlexWAN's fault-injection and recovery-drill engine:
// it wraps the NETCONF transport and the simulated device agents with
// scriptable faults — RPC delay/drop/connection-reset, device crash and
// restart, partial-commit rejection, telemetry flaps, timed fiber cuts —
// and drives the live controller loop (collector → Watch →
// HandleFiberCut → push) through scenario timelines, scoring recovery
// against the offline restoration oracle.
//
// The engine carries the same determinism contract as the solvers: one
// seed produces a byte-identical drill event log at any worker count,
// under -race. Real TCP and goroutine scheduling make *wall-clock*
// nondeterministic, so the contract is enforced structurally: fault
// decisions are pure hashes of (seed, device, op, sequence) rather than
// draws from a shared RNG; the injector only arms configuration-plane
// ops, whose issue order the controller serializes, never telemetry
// polls, whose count varies with timing; and the canonical log orders
// scripted steps by timeline position and injected faults by (device,
// op, seq), not by arrival. Latencies are reported in the drill's Report
// only — they never enter the log.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"
)

// Event is one entry of a drill's event log.
type Event struct {
	// Kind is "step" (a scripted timeline action), "fault" (an injected
	// transport fault) or "outcome" (an observed recovery result).
	Kind string `json:"kind"`
	// Action labels steps and outcomes ("cut", "crash", "restored", …).
	Action string `json:"action,omitempty"`
	// Device, Op and Seq identify an injected fault: the Seq-th armed
	// RPC of that operation on that device.
	Device string `json:"device,omitempty"`
	Op     string `json:"op,omitempty"`
	Seq    int    `json:"seq"`
	// Fault names the injected fault kind.
	Fault string `json:"fault,omitempty"`
	// Detail carries the step/outcome payload (fiber ID, Gbps, …).
	Detail string `json:"detail,omitempty"`
}

// Log accumulates a drill's events. It is safe for concurrent use: the
// drill goroutine appends steps and outcomes in timeline order while
// device servers report injected faults from their session goroutines.
type Log struct {
	mu       sync.Mutex
	timeline []Event
	faults   []Event
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Step records a scripted timeline action.
func (l *Log) Step(action, detail string) {
	l.append(Event{Kind: "step", Action: action, Detail: detail})
}

// Outcome records an observed recovery result.
func (l *Log) Outcome(action, detail string) {
	l.append(Event{Kind: "outcome", Action: action, Detail: detail})
}

func (l *Log) append(e Event) {
	l.mu.Lock()
	l.timeline = append(l.timeline, e)
	l.mu.Unlock()
}

// fault records an injected fault (called from device session goroutines).
func (l *Log) fault(e Event) {
	l.mu.Lock()
	l.faults = append(l.faults, e)
	l.mu.Unlock()
}

// Canonical returns the log in its canonical order: timeline events as
// scripted, then injected faults sorted by (device, op, seq). The sort
// is what makes the log schedule-independent — faults are *decided*
// deterministically per (device, op, seq) but *observed* in whatever
// order the session goroutines run.
func (l *Log) Canonical() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.timeline)+len(l.faults))
	out = append(out, l.timeline...)
	faults := append([]Event(nil), l.faults...)
	sort.Slice(faults, func(i, j int) bool {
		a, b := faults[i], faults[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Seq < b.Seq
	})
	return append(out, faults...)
}

// Marshal renders the canonical log as JSON lines — the byte stream the
// determinism contract is checked against.
func (l *Log) Marshal() []byte {
	var buf []byte
	for _, e := range l.Canonical() {
		line, err := json.Marshal(e)
		if err != nil {
			continue // Event marshaling cannot fail; defensive only.
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return buf
}

// Hash returns the hex SHA-256 of the marshaled canonical log.
func (l *Log) Hash() string {
	sum := sha256.Sum256(l.Marshal())
	return hex.EncodeToString(sum[:])
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.timeline) + len(l.faults)
}
