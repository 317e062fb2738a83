package controller

import (
	"math/rand"
	"time"
)

// RetryPolicy governs per-RPC retries in DevMgr.Call: ambiguous
// management-plane failures (timed-out RPCs, failed hellos, dial
// timeouts, a lost session Call dialed itself) are retried with capped
// exponential backoff plus jitter, which is how the controller rides out
// RPC loss without abandoning a restoration push. Failures that are not
// ambiguous skip the ladder: a refused dial is ErrDeviceDown, and device
// NACKs (netconf.RPCError) are never retried — the device meant it.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Values below 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 2s).
	MaxDelay time.Duration
	// JitterFrac spreads each backoff uniformly over
	// [d·(1−J), d·(1+J)] so a fleet-wide outage does not produce a
	// synchronized retry storm. Zero means no jitter.
	JitterFrac float64
	// Sleep, when non-nil, replaces time.Sleep — the injectable clock
	// that makes backoff unit tests instant.
	Sleep func(time.Duration)
	// Rand, when non-nil, replaces the jitter source with a
	// deterministic one; it must return values in [0, 1).
	Rand func() float64
}

// DefaultRetryPolicy is the policy DevMgr starts with: three attempts,
// 50ms base, 1s cap, ±25% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second, JitterFrac: 0.25}
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the jittered delay before retry number retry (1 is the
// first retry). It is exported so drills can log the schedule they run
// under.
func (p RetryPolicy) Backoff(retry int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= max {
			break
		}
	}
	if d > max {
		d = max
	}
	if p.JitterFrac > 0 {
		r := rand.Float64
		if p.Rand != nil {
			r = p.Rand
		}
		// Uniform over [d·(1−J), d·(1+J)].
		f := 1 - p.JitterFrac + 2*p.JitterFrac*r()
		d = time.Duration(float64(d) * f)
	}
	return d
}

func (p RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}
