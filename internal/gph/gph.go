// Package gph implements the shared-heap GpH runtime system on the
// simulated multicore machine: capabilities sharing one heap, par-created
// sparks in per-capability pools, spark activation by work pushing
// (GHC 6.8.x) or Chase–Lev work stealing, stop-the-world garbage
// collection with polling or wakeup barriers, and lazy or eager
// black-holing — i.e. every runtime variant measured in the paper.
package gph

import (
	"fmt"

	"parhask/internal/cost"
	"parhask/internal/deque"
	"parhask/internal/graph"
	"parhask/internal/machine"
	"parhask/internal/rts"
	"parhask/internal/sim"
	"parhask/internal/trace"
)

// Stats aggregates runtime counters over one run.
type Stats struct {
	SparksCreated   int // par calls that entered a pool
	SparksDud       int // par on an already-evaluated closure
	SparksDropped   int // pool overflow
	SparksConverted int // sparks turned into work (thread or spark-thread item)
	SparksFizzled   int // activated but already evaluated
	SparksPushed    int // pushed to idle capabilities (pushing mode)
	SparksLeftover  int // still unevaluated in a pool at program exit
	SparksGCd       int // fizzled sparks pruned from pools during GC
	ThreadsPushed   int // surplus threads migrated to idle capabilities
	Steals          int // successful remote pool steals
	StealAttempts   int // total remote steal attempts
	ThreadsCreated  int
	GCs             int
	MajorGCs        int
	LocalGCs        int   // per-capability collections (LocalHeaps mode)
	GCTime          int64 // total stop-the-world collection time
	LocalGCTime     int64 // total unsynchronised local collection time
	DupEntries      int   // duplicate thunk entries (lazy black-holing)
	BlockedOnThunk  int   // threads that blocked on a black hole
	TotalAlloc      int64
}

// Result is the outcome of one GpH run.
type Result struct {
	// Elapsed is the virtual time from program start to the main
	// thread's completion.
	Elapsed sim.Time
	// Value is what the main function returned.
	Value graph.Value
	Stats Stats
	Trace *trace.Log

	// threads backs the GranularityProfile.
	threads []*rts.Thread
}

// capExt is the GpH-specific state of one capability.
type capExt struct {
	cap  *rts.Cap
	pool *deque.Deque[graph.Thunk]

	sparkThreadActive bool
	idle              bool     // parked in FindWork
	lastSwitch        sim.Time // for timeslice accounting
	lastThread        *rts.Thread
}

// RTS is a running GpH runtime instance. It implements rts.System.
type RTS struct {
	cfg   Config
	sim   *sim.Sim
	cpu   *machine.CPU
	log   *trace.Log
	caps  []*capExt
	stats Stats

	gc gcState
	// globalHeapBytes accumulates survivors promoted by local
	// collections (LocalHeaps mode); crossing the configured limit
	// triggers a full stop-the-world collection.
	globalHeapBytes int64

	liveThreads int
	shutdown    bool
	mainDone    sim.Time
	mainValue   graph.Value
	// threads holds every thread ever created, for deadlock diagnostics.
	threads []*rts.Thread
}

var _ rts.System = (*RTS)(nil)

// Run executes main under the configured GpH runtime and returns the
// run's result. main runs as the initial thread on capability 0.
func Run(cfg Config, main func(*rts.Ctx) graph.Value) (*Result, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("gph: invalid core count %d", cfg.Cores)
	}
	s := sim.New(cfg.Seed + 0x9e3779b9)
	r := &RTS{
		cfg: cfg,
		sim: s,
		cpu: machine.New(s, cfg.Cores),
		log: trace.NewLog(),
	}
	costs := cfg.Costs
	for i := 0; i < cfg.Cores; i++ {
		agent := r.log.NewAgent(fmt.Sprintf("cap%d", i))
		c := rts.NewCap(i, r, r.cpu, &costs, agent)
		r.caps = append(r.caps, &capExt{cap: c, pool: deque.New[graph.Thunk]()})
	}
	// The main thread starts on capability 0 (before the cap tasks run,
	// so it is already queued when cap0's scheduler starts).
	mainThread := r.caps[0].cap.NewThread("main", func(ctx *rts.Ctx) {
		r.mainValue = main(ctx)
		r.mainDone = ctx.Now()
		r.shutdown = true
		r.wakeAllCaps()
	})
	r.caps[0].cap.Enqueue(mainThread)
	for _, e := range r.caps {
		e.cap.Start(s)
	}
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("gph: %w\n%s", err, r.dumpState())
	}
	r.log.Close(r.mainDone)
	for _, e := range r.caps {
		r.stats.TotalAlloc += e.cap.TotalAlloc
		// End-of-run spark accounting (as in GHC's +RTS -s): sparks left
		// in a pool either fizzled (already evaluated via sharing) or
		// were simply never needed.
		for {
			t, ok := e.pool.PopBottom()
			if !ok {
				break
			}
			if t.IsEvaluated() {
				r.stats.SparksFizzled++
			} else {
				r.stats.SparksLeftover++
			}
		}
	}
	return &Result{
		Elapsed: r.mainDone,
		Value:   r.mainValue,
		Stats:   r.stats,
		Trace:   r.log,
		threads: r.threads,
	}, nil
}

func (r *RTS) ext(c *rts.Cap) *capExt { return r.caps[c.Index] }

func (r *RTS) wakeAllCaps() {
	for _, e := range r.caps {
		e.cap.Wake()
	}
}

// costs returns the cost model (all caps share one).
func (r *RTS) costs() *cost.Model { return r.caps[0].cap.Costs }

// --- rts.System implementation ---

// EagerBlackholing reports the configured black-holing policy.
func (r *RTS) EagerBlackholing() bool { return r.cfg.EagerBlackholing }

// NoteDuplicate counts a duplicate thunk entry.
func (r *RTS) NoteDuplicate(t *graph.Thunk) { r.stats.DupEntries++ }

// ThreadCreated tracks the live-thread count for quiescence detection.
func (r *RTS) ThreadCreated(c *rts.Cap, th *rts.Thread) {
	r.liveThreads++
	r.stats.ThreadsCreated++
	r.threads = append(r.threads, th)
}

// ThreadDone handles thread termination.
func (r *RTS) ThreadDone(c *rts.Cap, th *rts.Thread) {
	r.liveThreads--
	if th.SparkThread {
		r.ext(c).sparkThreadActive = false
	}
	if r.shutdown && r.liveThreads == 0 {
		r.wakeAllCaps()
	}
}

// ThreadBlocked handles a thread parking on a black hole.
func (r *RTS) ThreadBlocked(c *rts.Cap, th *rts.Thread, on *graph.Thunk) {
	r.stats.BlockedOnThunk++
	if th.SparkThread {
		// A blocked spark thread stops draining sparks; allow the
		// capability to create another one (the paper: "the scheduler
		// will simply create another spark thread").
		r.ext(c).sparkThreadActive = false
	}
}

// Spark implements par: push the closure onto the local spark pool.
func (r *RTS) Spark(c *rts.Cap, th *rts.Thread, t *graph.Thunk) {
	e := r.ext(c)
	c.Burn(c.Costs.SparkPush)
	if t.IsEvaluated() {
		r.stats.SparksDud++
		return
	}
	if e.pool.Size() >= r.cfg.sparkPoolCap() {
		r.stats.SparksDropped++
		return
	}
	e.pool.PushBottom(t)
	r.stats.SparksCreated++
	if r.cfg.WorkStealing {
		// Event-driven: wake one idle capability so it can come and
		// steal. (Pushing mode distributes work only when a scheduler
		// runs — the delay the paper criticises.)
		r.wakeOneIdleCap()
	}
}

func (r *RTS) wakeOneIdleCap() {
	for _, e := range r.caps {
		if e.idle {
			// Claim the capability before it physically wakes so that the
			// next wake goes to a different idle capability.
			e.idle = false
			e.cap.Wake()
			return
		}
	}
}

// anySparks reports whether any capability's pool is non-empty.
func (r *RTS) anySparks() bool {
	for _, e := range r.caps {
		if !e.pool.Empty() {
			return true
		}
	}
	return false
}

// dumpState renders runtime state for deadlock diagnostics.
func (r *RTS) dumpState() string {
	var b []byte
	app := func(format string, args ...interface{}) {
		b = append(b, []byte(fmt.Sprintf(format, args...))...)
	}
	app("live threads: %d, shutdown: %v, gc pending: %v\n", r.liveThreads, r.shutdown, r.gc.pending)
	for _, e := range r.caps {
		app("cap%d: runQ=%d pool=%d blocked=%d idle=%v sparkThread=%v\n",
			e.cap.Index, e.cap.RunQLen(), e.pool.Size(), e.cap.BlockedCount, e.idle, e.sparkThreadActive)
	}
	for _, th := range r.threads {
		if th.State() == rts.ThreadDone {
			continue
		}
		if on := th.BlockedOn(); on != nil {
			app("thread %q (cap%d) state=%d blockedOn thunk state=%v evaluators=%d waiters=%d\n",
				th.Name, th.Cap().Index, th.State(), on.State(), on.Evaluators(), on.NumWaiters())
		} else {
			app("thread %q (cap%d) state=%d\n", th.Name, th.Cap().Index, th.State())
		}
	}
	return string(b)
}
