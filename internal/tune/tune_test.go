package tune

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/metrics"
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
	b.SetParkAfter(0)
	if _, park := b.Plan(1000); park {
		t.Fatal("Plan parked after SetParkAfter(0)")
	}
}

func TestBackoffWidenNarrow(t *testing.T) {
	b := DefaultBackoffPolicy()
	d0, _ := b.Plan(65) // first sleep at level 0
	if !b.Widen() {
		t.Fatal("Widen at level 0 returned false")
	}
	if b.Level() != 1 {
		t.Fatalf("Level = %d after one Widen", b.Level())
	}
	// Level 1 halves the spin budget: iteration 33 already sleeps.
	if d, _ := b.Plan(33); d == 0 {
		t.Fatal("level 1 did not shorten the spin budget")
	}
	// And doubles the cap.
	if d, _ := b.Plan(10_000); d != 2*1280*time.Microsecond {
		t.Fatalf("level 1 cap = %v, want %v", d, 2*1280*time.Microsecond)
	}
	for b.Widen() {
	}
	if b.Level() != maxBackoffLevel {
		t.Fatalf("Level = %d after widening to the cap, want %d", b.Level(), maxBackoffLevel)
	}
	for b.Narrow() {
	}
	if b.Level() != 0 {
		t.Fatalf("Level = %d after narrowing to the floor", b.Level())
	}
	if d, _ := b.Plan(65); d != d0 {
		t.Fatalf("level 0 schedule changed across widen/narrow: %v vs %v", d, d0)
	}
	if b.Narrow() {
		t.Fatal("Narrow at level 0 returned true")
	}
}

func TestParseBackoff(t *testing.T) {
	b, err := ParseBackoff("spin=32, min=5us, max=2ms, park=8")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.spin(); got != 32 {
		t.Fatalf("spin = %d, want 32", got)
	}
	if b.ParkAfter() != 8 {
		t.Fatalf("parkAfter = %d, want 8", b.ParkAfter())
	}
	if d, _ := b.Plan(33); d != 5*time.Microsecond {
		t.Fatalf("first sleep = %v, want 5µs", d)
	}
	if b, err = ParseBackoff(""); err != nil || b.ParkAfter() != 0 {
		t.Fatalf("empty spec: %v, parkAfter %d", err, b.ParkAfter())
	}
	for _, bad := range []string{
		"spin", "spin=0", "spin=x", "park=-1", "min=0s", "min=fast",
		"max=1us,min=2us", "speed=9",
		// Caps whose widened doublings overflow int64 nanoseconds.
		"max=600000h", "max=2562047h", "min=170000h,max=170000h",
	} {
		if _, err := ParseBackoff(bad); err == nil {
			t.Errorf("ParseBackoff(%q) accepted", bad)
		}
	}
}

// TestBackoffLargestCapSaturates: at the largest accepted cap the
// ladder climbs to the cap at every widen level and stays there, where
// an overflowing doubling once returned 0 or a negative sleep.
func TestBackoffLargestCapSaturates(t *testing.T) {
	top := maxSleepCap.String()
	for _, spec := range []string{"max=150000h", "min=1ns,max=" + top, "min=" + top + ",max=" + top} {
		b, err := ParseBackoff(spec)
		if err != nil {
			t.Fatalf("ParseBackoff(%q): %v", spec, err)
		}
		for level := 0; level <= maxBackoffLevel; level++ {
			limit := time.Duration(b.baseMaxNS << level)
			for _, spins := range []int{200, 1 << 20} {
				if d, _ := b.Plan(spins); d != limit {
					t.Fatalf("%q level %d: Plan(%d) = %v, want the cap %v", spec, level, spins, d, limit)
				}
			}
			b.Widen()
		}
	}
}

// FuzzParseBackoff: the parser never panics, and every policy it
// accepts sleeps within [0, cap] and never less for a later round, at
// every widen level.
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
		for level := 0; level <= maxBackoffLevel; level++ {
			limit := time.Duration(b.baseMaxNS << level)
			sp := int(b.spin())
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
					t.Fatalf("%q level %d: Sleep(%d) = %v, outside [0, %v]", spec, level, s, d, limit)
				}
				if d < prev {
					t.Fatalf("%q level %d: Sleep(%d) = %v after %v for an earlier round", spec, level, s, d, prev)
				}
				prev = d
			}
			b.Widen()
		}
	})
}

// --- Splitter ---

func TestSplitterSplitFuseClamps(t *testing.T) {
	s := NewSplitter("w", 8, 2, 16)
	if !s.Split() || s.Grain() != 4 {
		t.Fatalf("Split: grain %d, want 4", s.Grain())
	}
	if !s.Split() || s.Grain() != 2 {
		t.Fatalf("Split: grain %d, want 2", s.Grain())
	}
	if s.Split() {
		t.Fatal("Split below minGrain succeeded")
	}
	for s.Fuse() {
	}
	if s.Grain() != 16 {
		t.Fatalf("Fuse cap: grain %d, want 16", s.Grain())
	}
	if s.Splits() != 2 || s.Fuses() != 3 {
		t.Fatalf("counters: splits %d fuses %d, want 2 and 3", s.Splits(), s.Fuses())
	}
}

func TestSplitterTakeService(t *testing.T) {
	s := NewSplitter("w", 8, 1, 64)
	s.Observe(8, 1000)
	s.Observe(8, 3000)
	leaves, avg := s.TakeService()
	if leaves != 2 || avg != 2000 {
		t.Fatalf("TakeService = (%d, %d), want (2, 2000)", leaves, avg)
	}
	if leaves, avg = s.TakeService(); leaves != 0 || avg != 0 {
		t.Fatalf("second TakeService = (%d, %d), want drained", leaves, avg)
	}
	s.Observe(0, 50) // ignored
	s.Observe(1, -1) // ignored
	if leaves, _ = s.TakeService(); leaves != 0 {
		t.Fatal("invalid observations were counted")
	}
}

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
	if leaves == 0 {
		t.Fatal("no leaves ran")
	}
	if n, _ := s.TakeService(); n != int64(leaves) {
		t.Fatalf("observed %d leaves, ran %d", n, leaves)
	}
	if s.ParSum(seqCtx{}, 5, 5, nil) != 0 {
		t.Fatal("empty range is not 0")
	}
}

// TestSplitterParSumMidRunSplit drives the lazy-splitting property the
// controller relies on: coarsening or refining the grain mid-run
// changes the width of leaves that have not run yet.
func TestSplitterParSumMidRunSplit(t *testing.T) {
	s := NewSplitter("sum", 64, 1, 1024)
	var narrow int
	got := s.ParSum(seqCtx{}, 0, 256, func(_ exec.Ctx, lo, hi int) int64 {
		if s.Grain() == 64 {
			s.Split() // 64 -> 32: later leaves must respect the new grain
			s.Split() // 32 -> 16
		} else if hi-lo <= 16 {
			narrow++
		}
		var sum int64
		for i := lo; i < hi; i++ {
			sum += int64(i)
		}
		return sum
	})
	if want := int64(255 * 256 / 2); got != want {
		t.Fatalf("ParSum = %d, want %d", got, want)
	}
	if narrow == 0 {
		t.Fatal("mid-run Split did not refine later leaves")
	}
}

// --- Controller ---

// fakeGOGC satisfies GOGCAdjuster without touching the real GC.
type fakeGOGC struct {
	percent int
	refuse  bool
	calls   []int
}

func (f *fakeGOGC) Percent() int { return f.percent }
func (f *fakeGOGC) Adjust(p int) bool {
	f.calls = append(f.calls, p)
	if f.refuse {
		return false
	}
	f.percent = p
	return true
}

// obs builds a synthetic observation stream: each call advances the
// virtual clock one tick.
type obsStream struct {
	now int64
	o   Observation
}

func (s *obsStream) next(mut func(*Observation)) Observation {
	s.now += int64(time.Millisecond)
	s.o.NowNS = s.now
	if mut != nil {
		mut(&s.o)
	}
	return s.o
}

func actions(ds []Decision, lever string) []string {
	var out []string
	for _, d := range ds {
		if d.Lever == lever {
			out = append(out, d.Action)
		}
	}
	return out
}

func TestControllerChunkSplitFuse(t *testing.T) {
	sp := NewSplitter("sumEuler", 64, 1, 1024)
	c := NewController(ControllerConfig{TargetLeafNS: 100_000}, Levers{Splitters: []*Splitter{sp}})
	st := &obsStream{}
	c.Step(st.next(nil)) // seed

	// Slow leaves (1ms >> 2*100µs): split.
	sp.Observe(64, 1_000_000)
	ds := c.Step(st.next(nil))
	if got := actions(ds, "chunk"); len(got) != 1 || got[0] != "split" {
		t.Fatalf("slow leaves: decisions %v, want one split", ds)
	}
	if sp.Grain() != 32 {
		t.Fatalf("grain = %d after split, want 32", sp.Grain())
	}

	// Fast leaves (10µs << 100µs/4): fuse.
	sp.Observe(32, 10_000)
	ds = c.Step(st.next(nil))
	if got := actions(ds, "chunk"); len(got) != 1 || got[0] != "fuse" {
		t.Fatalf("fast leaves: decisions %v, want one fuse", ds)
	}
	if sp.Grain() != 64 {
		t.Fatalf("grain = %d after fuse, want 64", sp.Grain())
	}

	// In-band leaves: no decision.
	sp.Observe(64, 150_000)
	if ds = c.Step(st.next(nil)); len(actions(ds, "chunk")) != 0 {
		t.Fatalf("in-band leaves still decided: %v", ds)
	}
	// No leaves at all: no decision either.
	if ds = c.Step(st.next(nil)); len(ds) != 0 {
		t.Fatalf("idle tick decided: %v", ds)
	}
}

func TestControllerBackoffWidenNarrow(t *testing.T) {
	b := DefaultBackoffPolicy()
	c := NewController(ControllerConfig{}, Levers{Backoff: b})
	st := &obsStream{}
	c.Step(st.next(nil))

	// Sustained steal failure on dry queues: widen.
	ds := c.Step(st.next(func(o *Observation) {
		o.StealAttempts += 100
		o.Steals += 2
	}))
	if got := actions(ds, "backoff"); len(got) != 1 || got[0] != "widen" {
		t.Fatalf("dry failure: decisions %v, want one widen", ds)
	}
	if b.Level() != 1 {
		t.Fatalf("level = %d, want 1", b.Level())
	}

	// Queue refilled: narrow, even though the failure ratio is high.
	ds = c.Step(st.next(func(o *Observation) {
		o.StealAttempts += 100
		o.Steals += 2
		o.SparksLeftover = 40
	}))
	if got := actions(ds, "backoff"); len(got) != 1 || got[0] != "narrow" {
		t.Fatalf("refill: decisions %v, want one narrow", ds)
	}
	if b.Level() != 0 {
		t.Fatalf("level = %d, want 0", b.Level())
	}
	// Already at the floor: success-heavy ticks decide nothing.
	if ds = c.Step(st.next(func(o *Observation) {
		o.StealAttempts += 100
		o.Steals += 90
		o.SparksLeftover = 0
	})); len(actions(ds, "backoff")) != 0 {
		t.Fatalf("floor tick decided: %v", ds)
	}
}

func TestControllerGOGCRaiseLower(t *testing.T) {
	gc := &fakeGOGC{percent: 100}
	c := NewController(ControllerConfig{GCRaiseCycles: 2, GCLowerTicks: 3, BaseGOGC: 100, MaxGOGC: 400},
		Levers{GOGC: gc})
	st := &obsStream{}
	c.Step(st.next(nil))

	// GC pressure: raise 100 -> 200.
	ds := c.Step(st.next(func(o *Observation) { o.GCCycles += 2 }))
	if got := actions(ds, "gogc"); len(got) != 1 || got[0] != "raise" {
		t.Fatalf("pressure: decisions %v, want one raise", ds)
	}
	if gc.percent != 200 {
		t.Fatalf("GOGC = %d, want 200", gc.percent)
	}
	// More pressure: 200 -> 400 (the cap).
	c.Step(st.next(func(o *Observation) { o.GCCycles += 3 }))
	if gc.percent != 400 {
		t.Fatalf("GOGC = %d, want 400 (cap)", gc.percent)
	}
	// At the cap, pressure decides nothing more.
	if ds = c.Step(st.next(func(o *Observation) { o.GCCycles += 2 })); len(actions(ds, "gogc")) != 0 {
		t.Fatalf("capped raise decided: %v", ds)
	}

	// Three quiet ticks: lower 400 -> 200.
	c.Step(st.next(nil))
	c.Step(st.next(nil))
	ds = c.Step(st.next(nil))
	if got := actions(ds, "gogc"); len(got) != 1 || got[0] != "lower" {
		t.Fatalf("quiet: decisions %v, want one lower", ds)
	}
	if gc.percent != 200 {
		t.Fatalf("GOGC = %d after lower, want 200", gc.percent)
	}
}

func TestControllerGOGCRefused(t *testing.T) {
	gc := &fakeGOGC{percent: 100, refuse: true}
	c := NewController(ControllerConfig{GCRaiseCycles: 2}, Levers{GOGC: gc})
	st := &obsStream{}
	c.Step(st.next(nil))
	// A refused Adjust (shared lease) must not be recorded as a decision.
	ds := c.Step(st.next(func(o *Observation) { o.GCCycles += 5 }))
	if len(actions(ds, "gogc")) != 0 {
		t.Fatalf("refused adjust recorded: %v", ds)
	}
	if len(gc.calls) != 1 {
		t.Fatalf("Adjust called %d times, want 1", len(gc.calls))
	}
}

func TestControllerParkEnableDisable(t *testing.T) {
	b := DefaultBackoffPolicy() // parking off
	c := NewController(ControllerConfig{ParkIdleTicks: 3}, Levers{Backoff: b})
	st := &obsStream{}
	c.Step(st.next(nil))

	// Three drained ticks (no conversions, empty pools): enable parking.
	var ds []Decision
	for i := 0; i < 3; i++ {
		ds = c.Step(st.next(nil))
	}
	if got := actions(ds, "park"); len(got) != 1 || got[0] != "enable" {
		t.Fatalf("drained ticks: decisions %v, want park enable", ds)
	}
	if b.ParkAfter() == 0 {
		t.Fatal("parking still disabled after the enable decision")
	}

	// Three deep-pool ticks: disable again.
	for i := 0; i < 3; i++ {
		ds = c.Step(st.next(func(o *Observation) {
			o.SparksLeftover = 100
			o.SparksConverted += 50
		}))
	}
	if got := actions(ds, "park"); len(got) != 1 || got[0] != "disable" {
		t.Fatalf("deep ticks: decisions %v, want park disable", ds)
	}
	if b.ParkAfter() != 0 {
		t.Fatal("parking still armed after the disable decision")
	}
}

func TestControllerTraceAndMetrics(t *testing.T) {
	reg := metrics.New()
	sp := NewSplitter("w", 64, 1, 1024)
	b := AdaptiveBackoff()
	gc := &fakeGOGC{percent: 100}
	c := NewController(ControllerConfig{Metrics: reg, TargetLeafNS: 100_000, GCRaiseCycles: 2},
		Levers{Splitters: []*Splitter{sp}, Backoff: b, GOGC: gc})
	st := &obsStream{}
	c.Step(st.next(nil))
	sp.Observe(64, 1_000_000)
	c.Step(st.next(func(o *Observation) {
		o.StealAttempts += 100
		o.Steals += 1
		o.GCCycles += 2
	}))

	tr := c.Trace().Decisions()
	if len(tr) != 3 {
		t.Fatalf("trace has %d decisions, want 3 (chunk, backoff, gogc): %v", len(tr), tr)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		`autotune_decisions_total{lever="chunk",action="split"} 1`,
		`autotune_grain{splitter="w"} 32`,
		`autotune_backoff_level 1`,
		`autotune_gogc 200`,
		`autotune_parking_enabled 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics output missing %q\n%s", want, prom)
		}
	}
}

func TestTraceBound(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Add(Decision{TickNS: int64(i)})
	}
	ds := tr.Decisions()
	if len(ds) != 4 {
		t.Fatalf("trace kept %d, want 4", len(ds))
	}
	if ds[0].TickNS != 6 || ds[3].TickNS != 9 {
		t.Fatalf("trace kept %v, want ticks 6..9", ds)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestControllerStartStop(t *testing.T) {
	sp := NewSplitter("w", 64, 1, 1024)
	c := NewController(ControllerConfig{Tick: time.Millisecond, TargetLeafNS: 100_000},
		Levers{Splitters: []*Splitter{sp}})
	st := &obsStream{}
	done := make(chan struct{})
	samples := 0
	c.Start(func() Observation {
		samples++
		if samples == 2 {
			sp.Observe(64, 1_000_000)
		}
		if samples == 4 {
			close(done)
		}
		return st.next(nil)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tick loop never sampled")
	}
	c.Stop()
	c.Stop() // idempotent
	if sp.Grain() == 64 {
		t.Fatal("live loop never split the slow splitter")
	}
}

func TestControllerStopWithoutStart(t *testing.T) {
	c := NewController(ControllerConfig{}, Levers{})
	c.Stop() // must not hang
}
