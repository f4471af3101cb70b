// Package tune closes the loop on the runtime telemetry: every knob
// the paper tuned by hand — spark granularity (chunk counts and block
// sizes), steal backoff, the GC target (GOGC as the allocation-area
// size of §IV-A.1), worker parking — becomes a lever an online
// controller moves from the signals the runtime already publishes
// (steal-failure rates, spark-pool depths, per-spark service times,
// GC cycle and allocation deltas).
//
// The package is deliberately runtime-agnostic: it imports neither
// internal/native nor internal/nativeeden. The runtimes hand it an
// Observation stream and a set of levers (a Splitter shared with the
// workload, a Backoff policy the idle loops read, a GOGC adjuster);
// the Controller's Step function is a pure transition from observation
// deltas to decisions, so controller behaviour is unit-testable from
// synthetic snapshot streams with no wall-clock dependence.
package tune

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Default backoff parameters: the fixed policy the native runtime's
// idleWait hard-coded before it became tunable (64 Gosched rounds,
// then sleeps doubling from 10µs to a 1.28ms cap), plus the parking
// threshold the adaptive policy starts from.
const (
	DefaultSpin      = 64
	DefaultSleepMin  = 10 * time.Microsecond
	DefaultSleepMax  = 1280 * time.Microsecond
	DefaultParkAfter = 8
	// maxBackoffLevel bounds how far Widen can escalate: each level
	// halves the spin budget and doubles the sleep cap.
	maxBackoffLevel = 4
	// maxSleepCap is the largest level-0 sleep cap a policy accepts:
	// the cap doubled at every widen level must still fit in an int64
	// of nanoseconds (about 160 000 hours).
	maxSleepCap = time.Duration(math.MaxInt64 >> maxBackoffLevel)
)

// Backoff is a per-pool idle-wait policy: how long an idle worker
// spins, how its sleeps grow, and when (if ever) it parks on the
// pool's condvar instead of sleeping. All fields are atomics so the
// controller can move them while workers read them lock-free; the
// zero-cost path for runs without a policy is a package-level default
// instance that nothing ever adjusts.
type Backoff struct {
	// Immutable level-0 baseline, set at construction.
	baseSpin  int64
	baseMinNS int64
	baseMaxNS int64

	// level is the controller's widen/narrow position: level k spins
	// baseSpin>>k rounds before sleeping and caps sleeps at
	// baseMaxNS<<k. Widening trades steal latency for burned cores
	// under sustained steal failure; narrowing restores responsiveness
	// when work returns.
	level atomic.Int64

	// parkAfter is how many consecutive sleep rounds an idle loop takes
	// before parking on the pool condvar; 0 disables parking (the
	// pre-parking sleep-loop behaviour).
	parkAfter atomic.Int64
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
	b := &Backoff{baseSpin: int64(spin), baseMinNS: min.Nanoseconds(), baseMaxNS: max.Nanoseconds()}
	b.parkAfter.Store(int64(parkAfter))
	return b
}

// DefaultBackoffPolicy returns the fixed legacy policy: spin 64,
// sleeps 10µs..1.28ms, no parking.
func DefaultBackoffPolicy() *Backoff {
	return NewBackoff(DefaultSpin, DefaultSleepMin, DefaultSleepMax, 0)
}

// AdaptiveBackoff returns the policy an autotuned run starts from:
// the legacy spin/sleep shape with parking armed, ready for the
// controller to widen and narrow.
func AdaptiveBackoff() *Backoff {
	return NewBackoff(DefaultSpin, DefaultSleepMin, DefaultSleepMax, DefaultParkAfter)
}

// Level reports the current widen level (0 = baseline).
func (b *Backoff) Level() int { return int(b.level.Load()) }

// ParkAfter reports the sleep rounds before parking (0 = never park).
func (b *Backoff) ParkAfter() int { return int(b.parkAfter.Load()) }

// SetParkAfter moves the parking threshold (0 disables parking).
func (b *Backoff) SetParkAfter(rounds int) {
	if rounds < 0 {
		rounds = 0
	}
	b.parkAfter.Store(int64(rounds))
}

// Widen escalates the backoff one level (fewer spins, longer sleeps)
// and reports whether anything changed (false at the cap).
func (b *Backoff) Widen() bool {
	for {
		l := b.level.Load()
		if l >= maxBackoffLevel {
			return false
		}
		if b.level.CompareAndSwap(l, l+1) {
			return true
		}
	}
}

// Narrow de-escalates one level toward the baseline and reports
// whether anything changed (false at level 0).
func (b *Backoff) Narrow() bool {
	for {
		l := b.level.Load()
		if l <= 0 {
			return false
		}
		if b.level.CompareAndSwap(l, l-1) {
			return true
		}
	}
}

// spin returns the Gosched budget at the current level (≥ 1).
func (b *Backoff) spin() int64 {
	s := b.baseSpin >> uint(b.level.Load())
	if s < 1 {
		s = 1
	}
	return s
}

// sleepNS is the doubling ladder: sleep round `round` (0-based) lasts
// min<<round nanoseconds, capped at the current level's maximum. The
// doubling saturates at the cap instead of overflowing past it: ParseBackoff
// keeps the widened cap itself within an int64, but a sleep between half
// the cap and the cap can still exceed 2^62 ns at level 4, and doubling
// that would wrap negative.
func (b *Backoff) sleepNS(round int64) int64 {
	max := b.baseMaxNS << uint(b.level.Load())
	ns := b.baseMinNS
	for i := int64(0); i < round && ns < max; i++ {
		if ns > max>>1 {
			return max
		}
		ns <<= 1
	}
	if ns > max {
		ns = max
	}
	return ns
}

// Plan tells an idle loop what iteration `spins` should do: park
// (park=true), sleep for d (d > 0), or yield the processor (d == 0).
// The schedule is the classic spin-then-sleep ladder: `spin()` yield
// rounds, then sleeps doubling from the minimum to the level's cap;
// once parkAfter sleep rounds have passed (and parking is enabled),
// park. Lock-free; safe from any goroutine.
func (b *Backoff) Plan(spins int) (d time.Duration, park bool) {
	sp := b.spin()
	if int64(spins) <= sp {
		return 0, false
	}
	round := int64(spins) - sp - 1 // 0-based sleep round
	if pa := b.parkAfter.Load(); pa > 0 && round >= pa {
		return 0, true
	}
	return time.Duration(b.sleepNS(round)), false
}

// Sleep is Plan for idle loops that may never park — a force blocked
// on a thunk has no wake source on the pool condvar, so it rides the
// sleep ladder to the cap instead.
func (b *Backoff) Sleep(spins int) time.Duration {
	sp := b.spin()
	if int64(spins) <= sp {
		return 0
	}
	return time.Duration(b.sleepNS(int64(spins) - sp - 1))
}

// String renders the policy for logs and traces.
func (b *Backoff) String() string {
	return fmt.Sprintf("backoff{spin=%d min=%s max=%s level=%d park=%d}",
		b.spin(), time.Duration(b.baseMinNS), time.Duration(b.baseMaxNS<<uint(b.level.Load())),
		b.level.Load(), b.parkAfter.Load())
}
