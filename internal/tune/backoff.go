// Package tune holds the native runtime's two fixed runtime choices
// that are not on/off flags: the idle-wait policy a worker follows when
// it finds no spark (Backoff, the -backoff grammar: spin, sleep ladder,
// optional parking), and a lazy binary splitter (Splitter.ParSum) that
// carves an interval into sparks of a pinned grain at execution time.
// Both are set before a run and never move during it, as the paper's
// runtime options are.
//
// The package is runtime-agnostic: it imports neither internal/native
// nor internal/nativeeden.
package tune

import (
	"fmt"
	"time"
)

// Default backoff parameters: the fixed policy the native runtime's
// idleWait hard-coded before it became configurable (64 Gosched
// rounds, then sleeps doubling from 10µs to a 1.28ms cap).
const (
	DefaultSpin     = 64
	DefaultSleepMin = 10 * time.Microsecond
	DefaultSleepMax = 1280 * time.Microsecond
)

// Backoff is a per-pool idle-wait policy: how long an idle worker
// spins, how its sleeps grow, and when (if ever) it parks on the
// pool's condvar instead of sleeping. It is immutable once built, so
// workers read it without synchronisation.
type Backoff struct {
	spin  int64
	minNS int64
	maxNS int64
	// parkAfter is how many consecutive sleep rounds an idle loop takes
	// before parking on the pool condvar; 0 disables parking (the
	// pre-parking sleep-loop behaviour).
	parkAfter int64
}

// NewBackoff builds a policy from explicit parameters. spin < 1 is
// clamped to 1; non-positive durations take the defaults.
func NewBackoff(spin int, min, max time.Duration, parkAfter int) *Backoff {
	if spin < 1 {
		spin = 1
	}
	if min <= 0 {
		min = DefaultSleepMin
	}
	if max < min {
		max = min
	}
	if parkAfter < 0 {
		parkAfter = 0
	}
	return &Backoff{spin: int64(spin), minNS: min.Nanoseconds(), maxNS: max.Nanoseconds(), parkAfter: int64(parkAfter)}
}

// DefaultBackoffPolicy returns the fixed legacy policy: spin 64,
// sleeps 10µs..1.28ms, no parking.
func DefaultBackoffPolicy() *Backoff {
	return NewBackoff(DefaultSpin, DefaultSleepMin, DefaultSleepMax, 0)
}

// sleepNS is the doubling ladder: sleep round `round` (0-based) lasts
// min<<round nanoseconds, capped at max. The doubling saturates at the
// cap instead of overflowing past it: a sleep between half the cap and
// the cap can exceed 2^62 ns when the cap is near the int64 limit, and
// doubling that would wrap negative.
func (b *Backoff) sleepNS(round int64) int64 {
	ns := b.minNS
	for i := int64(0); i < round && ns < b.maxNS; i++ {
		if ns > b.maxNS>>1 {
			return b.maxNS
		}
		ns <<= 1
	}
	return ns
}

// Plan tells an idle loop what iteration `spins` should do: park
// (park=true), sleep for d (d > 0), or yield the processor (d == 0).
// The schedule is the classic spin-then-sleep ladder: spin yield
// rounds, then sleeps doubling from the minimum to the cap; once
// parkAfter sleep rounds have passed (and parking is enabled), park.
func (b *Backoff) Plan(spins int) (d time.Duration, park bool) {
	if int64(spins) <= b.spin {
		return 0, false
	}
	round := int64(spins) - b.spin - 1 // 0-based sleep round
	if b.parkAfter > 0 && round >= b.parkAfter {
		return 0, true
	}
	return time.Duration(b.sleepNS(round)), false
}

// Sleep is Plan for idle loops that may never park — a force blocked
// on a thunk has no wake source on the pool condvar, so it rides the
// sleep ladder to the cap instead.
func (b *Backoff) Sleep(spins int) time.Duration {
	if int64(spins) <= b.spin {
		return 0
	}
	return time.Duration(b.sleepNS(int64(spins) - b.spin - 1))
}

// String renders the policy for logs and traces.
func (b *Backoff) String() string {
	return fmt.Sprintf("backoff{spin=%d min=%s max=%s park=%d}",
		b.spin, time.Duration(b.minNS), time.Duration(b.maxNS), b.parkAfter)
}
