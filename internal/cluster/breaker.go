package cluster

import (
	"sync"
	"time"
)

// Breaker states.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// breaker is a per-node circuit breaker: after threshold consecutive
// node-level failures the circuit opens and the router stops sending
// the node traffic for cooldown, so a dead or drowning node costs one
// connection timeout per cooldown instead of one per request. After
// the cooldown one trial request is let through (half-open); its
// outcome re-closes or re-opens the circuit.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	failures  int
	openUntil time.Time
	// trialUntil is non-zero while a half-open trial is in flight; if
	// the trial never reports back (wedged connection), a new trial is
	// granted after it — the circuit must not be wedge-able shut.
	trialUntil time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may be sent to the node now. In the
// half-open window only one trial is admitted at a time, but a trial
// that never reports back stops blocking after one cooldown.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures < b.threshold {
		return true
	}
	if now.Before(b.openUntil) {
		return false
	}
	if !b.trialUntil.IsZero() && now.Before(b.trialUntil) {
		return false
	}
	b.trialUntil = now.Add(b.cooldown)
	return true
}

// success records a served request: the circuit closes.
func (b *breaker) success() {
	b.mu.Lock()
	b.failures = 0
	b.trialUntil = time.Time{}
	b.mu.Unlock()
}

// failure records a node-level failure, opening (or re-opening) the
// circuit once the threshold is reached.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	b.failures++
	b.trialUntil = time.Time{}
	if b.failures >= b.threshold {
		b.openUntil = now.Add(b.cooldown)
	}
	b.mu.Unlock()
}

// state names the current circuit state for the white-box view.
func (b *breaker) state(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.failures < b.threshold:
		return breakerClosed
	case now.Before(b.openUntil):
		return breakerOpen
	default:
		return breakerHalfOpen
	}
}
