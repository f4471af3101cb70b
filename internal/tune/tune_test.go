package tune

import (
	"math"
	"slices"
	"testing"
	"time"

	"parhask/internal/exec"
	"parhask/internal/graph"
)

// --- Backoff ---

func TestBackoffPlanSchedule(t *testing.T) {
	b := DefaultBackoffPolicy()
	// The spin budget: iterations up to spin yield, never sleep.
	for _, spins := range []int{0, 1, 63, 64} {
		if d, park := b.Plan(spins); d != 0 || park {
			t.Fatalf("Plan(%d) = (%v, %v), want yield", spins, d, park)
		}
	}
	// Then sleeps double from the min to the cap: the legacy idleWait
	// ladder 10µs, 20µs, ..., 1280µs.
	want := []time.Duration{10, 20, 40, 80, 160, 320, 640, 1280, 1280, 1280}
	for i, w := range want {
		d, park := b.Plan(65 + i)
		if park {
			t.Fatalf("Plan(%d) parked with parking disabled", 65+i)
		}
		if d != w*time.Microsecond {
			t.Fatalf("Plan(%d) = %v, want %v", 65+i, d, w*time.Microsecond)
		}
	}
}

func TestBackoffParkThreshold(t *testing.T) {
	b := NewBackoff(4, 10*time.Microsecond, 1280*time.Microsecond, 3)
	// spins 1..4 yield; sleep rounds 0,1,2 at spins 5,6,7; round 3 at
	// spins 8 parks.
	for spins := 0; spins <= 7; spins++ {
		if _, park := b.Plan(spins); park {
			t.Fatalf("Plan(%d) parked before the threshold", spins)
		}
	}
	if _, park := b.Plan(8); !park {
		t.Fatal("Plan(8) did not park at round 3 with park=3")
	}
	if _, park := NewBackoff(4, 10*time.Microsecond, 1280*time.Microsecond, 0).Plan(1000); park {
		t.Fatal("Plan parked with park=0")
	}
}

func TestParseBackoff(t *testing.T) {
	b, err := ParseBackoff("spin=32, min=5us, max=2ms, park=8")
	if err != nil {
		t.Fatal(err)
	}
	if b.spin != 32 {
		t.Fatalf("spin = %d, want 32", b.spin)
	}
	if b.parkAfter != 8 {
		t.Fatalf("parkAfter = %d, want 8", b.parkAfter)
	}
	if d, _ := b.Plan(33); d != 5*time.Microsecond {
		t.Fatalf("first sleep = %v, want 5µs", d)
	}
	if b, err = ParseBackoff(""); err != nil || b.parkAfter != 0 {
		t.Fatalf("empty spec: %v, parkAfter %d", err, b.parkAfter)
	}
	// Any positive cap that fits a time.Duration is accepted, up to the
	// int64 limit, and the ladder tops out at it.
	for _, good := range []string{
		"max=600000h", "max=2562047h", "min=170000h,max=170000h",
		"max=2562047h47m16.854775807s",
	} {
		b, err := ParseBackoff(good)
		if err != nil {
			t.Errorf("ParseBackoff(%q): %v", good, err)
			continue
		}
		if d, _ := b.Plan(1 << 20); d != time.Duration(b.maxNS) {
			t.Errorf("ParseBackoff(%q): Plan(1<<20) = %v, want the cap %v", good, d, time.Duration(b.maxNS))
		}
	}
	for _, bad := range []string{
		"spin", "spin=0", "spin=x", "park=-1", "min=0s", "min=fast",
		"max=1us,min=2us", "speed=9", "max=2562047h47m16.854775808s",
	} {
		if _, err := ParseBackoff(bad); err == nil {
			t.Errorf("ParseBackoff(%q) accepted", bad)
		}
	}
}

// TestBackoffLargestCapSaturates: at the largest caps the ladder
// climbs to the cap and stays there, where an overflowing doubling once
// returned 0 or a negative sleep.
func TestBackoffLargestCapSaturates(t *testing.T) {
	top := time.Duration(math.MaxInt64).String()
	for _, spec := range []string{"max=150000h", "max=" + top, "min=1ns,max=" + top, "min=" + top + ",max=" + top} {
		b, err := ParseBackoff(spec)
		if err != nil {
			t.Fatalf("ParseBackoff(%q): %v", spec, err)
		}
		for _, spins := range []int{200, 1 << 20, math.MaxInt} {
			if d, _ := b.Plan(spins); d != time.Duration(b.maxNS) {
				t.Fatalf("%q: Plan(%d) = %v, want the cap %v", spec, spins, d, time.Duration(b.maxNS))
			}
		}
	}
}

// FuzzParseBackoff: the parser never panics, and every policy it
// accepts sleeps within [0, max] and never less for a later round.
func FuzzParseBackoff(f *testing.F) {
	for _, seed := range []string{
		"", "spin=32, min=5us, max=2ms, park=8", "max=600000h", "max=64000h",
		"min=1ns,max=1ns", "spin=9223372036854775807", "park=3,spin=1",
		"min=70000h", "max=1h,min=59m", ",,", "spin=1,max=2562047h47m16.854775807s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		b, err := ParseBackoff(spec)
		if err != nil {
			return
		}
		limit := time.Duration(b.maxNS)
		sp := int(b.spin)
		var pts []int
		for i := 0; i <= 80; i++ {
			pts = append(pts, i)
			if sp <= math.MaxInt-100 {
				pts = append(pts, sp-1+i)
			}
		}
		pts = append(pts, math.MaxInt)
		slices.Sort(pts)
		prev := time.Duration(0)
		for _, s := range pts {
			d := b.Sleep(s)
			if d < 0 || d > limit {
				t.Fatalf("%q: Sleep(%d) = %v, outside [0, %v]", spec, s, d, limit)
			}
			if d < prev {
				t.Fatalf("%q: Sleep(%d) = %v after %v for an earlier round", spec, s, d, prev)
			}
			prev = d
		}
	})
}

// --- Splitter ---

// seqCtx is a minimal sequential exec.Ctx + graph.Context for driving
// ParSum without a runtime: Par is a no-op (the spine forces every
// sparked thunk itself), Force evaluates in place.
type seqCtx struct{}

func (seqCtx) Burn(int64)                      {}
func (seqCtx) Alloc(int64)                     {}
func (seqCtx) EagerBlackholing() bool          { return true }
func (seqCtx) BlackholeWriteCost() int64       { return 0 }
func (seqCtx) EnteredThunk(*graph.Thunk)       {}
func (seqCtx) LeftThunk(*graph.Thunk)          {}
func (seqCtx) BlockOnThunk(*graph.Thunk)       {}
func (seqCtx) WakeThunkWaiters(*graph.Thunk)   {}
func (seqCtx) NoteDuplicateEntry(*graph.Thunk) {}
func (c seqCtx) Par(*graph.Thunk)              {}
func (c seqCtx) Force(t *graph.Thunk) graph.Value {
	return graph.Force(c, t)
}
func (c seqCtx) ForceDeep(v graph.Value) graph.Value {
	return graph.ForceDeep(c, v)
}

func TestSplitterParSum(t *testing.T) {
	s := NewSplitter("sum", 4, 1, 1024)
	var leaves int
	got := s.ParSum(seqCtx{}, 0, 100, func(_ exec.Ctx, lo, hi int) int64 {
		if hi-lo > 4 {
			t.Errorf("leaf [%d,%d) wider than the grain", lo, hi)
		}
		leaves++
		var sum int64
		for i := lo; i < hi; i++ {
			sum += int64(i)
		}
		return sum
	})
	if want := int64(99 * 100 / 2); got != want {
		t.Fatalf("ParSum = %d, want %d", got, want)
	}
	if leaves < 100/4 {
		t.Fatalf("%d leaves ran, want at least %d", leaves, 100/4)
	}
	if s.ParSum(seqCtx{}, 5, 5, nil) != 0 {
		t.Fatal("empty range is not 0")
	}
	// The grain is clamped into [min, max].
	for _, c := range []struct{ grain, min, max, want int }{
		{8, 2, 16, 8}, {1, 2, 16, 2}, {64, 2, 16, 16}, {0, 0, 0, 1}, {1 << 30, 1, 0, 1 << 20},
	} {
		if got := NewSplitter("c", c.grain, c.min, c.max).grain; got != c.want {
			t.Errorf("NewSplitter(grain %d, [%d, %d]).grain = %d, want %d", c.grain, c.min, c.max, got, c.want)
		}
	}
}
