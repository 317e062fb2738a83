package device

import (
	"encoding/json"
	"fmt"
	"sync"
)

// Candidate-datastore operations, mirroring NETCONF's candidate
// configuration and commit model: the controller stages a validated
// configuration on every device of a change set, then commits them all —
// or discards them all if any device rejects its document. This is what
// makes a network-wide configuration push atomic across vendors.
const (
	// OpEditCandidate validates a configuration document and stages it
	// without applying.
	OpEditCandidate = "edit-candidate"
	// OpCommit applies the staged document (no-op when nothing staged).
	OpCommit = "commit"
	// OpDiscard drops the staged document.
	OpDiscard = "discard"
)

// candidate holds one staged configuration document, decoded and
// validated: commit applies the value edit-candidate checked, without
// decoding the bytes again.
type candidate[T any] struct {
	mu     sync.Mutex
	staged *T
}

// handleCandidateOp implements the three candidate ops generically:
// decode parses and checks a document without side effects; apply
// installs a decoded one. It reports whether the op was a candidate op
// (handled=false lets the caller dispatch its other ops).
func (c *candidate[T]) handleCandidateOp(op string, payload json.RawMessage,
	decode func(json.RawMessage) (T, error), apply func(T) error) (handled bool, err error) {
	switch op {
	case OpEditCandidate:
		doc, err := decode(payload)
		if err != nil {
			return true, err
		}
		c.mu.Lock()
		c.staged = &doc
		c.mu.Unlock()
		return true, nil
	case OpCommit:
		c.mu.Lock()
		staged := c.staged
		c.staged = nil
		c.mu.Unlock()
		if staged == nil {
			return true, nil
		}
		if err := apply(*staged); err != nil {
			// Validation passed at stage time; failure here means the
			// running state changed in between — surface it loudly.
			return true, fmt.Errorf("device: commit failed after successful stage: %w", err)
		}
		return true, nil
	case OpDiscard:
		c.clear()
		return true, nil
	default:
		return false, nil
	}
}

// clear drops any staged document — the device-crash path, where the
// candidate datastore is volatile and does not survive a reboot.
func (c *candidate[T]) clear() {
	c.mu.Lock()
	c.staged = nil
	c.mu.Unlock()
}

// HasStaged reports whether a document is currently staged (test hook).
func (c *candidate[T]) HasStaged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.staged != nil
}
