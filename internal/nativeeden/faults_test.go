package nativeeden

import (
	"errors"
	"strings"
	"testing"
	"time"

	"parhask/internal/eden"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/workloads/euler"
)

func mustPlan(t *testing.T, spec string) *faults.Injector {
	t.Helper()
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faults.NewInjector(p)
}

func TestEdenCrossPEReceiveIsStructured(t *testing.T) {
	// Satellite: channel misuse raises a typed *eden.ChanMisuseError
	// (reachable through errors.As on the run error), not a bare string.
	done := make(chan error, 1)
	go func() {
		_, err := Run(NewConfig(2), func(p pe.Ctx) graph.Value {
			in, out := p.NewChan(0) // owned by PE 0
			p.Spawn(1, "thief", func(w pe.Ctx) {
				w.Receive(in) // cross-PE receive: misuse
			})
			p.Send(out, 1)
			hang := graph.NewPlaceholder()
			return p.Force(hang) // wait for the thief's failure to abort us
		})
		done <- err
	}()
	err := awaitRun(t, done)
	var me *eden.ChanMisuseError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *eden.ChanMisuseError", err)
	}
	if me.Op != "Receive" || me.Reason != "cross-pe" || me.PE != 1 || me.Owner != 0 {
		t.Fatalf("misuse fields: %+v", me)
	}
}

func TestEdenReceiveCycleDeadlock(t *testing.T) {
	// The satellite's canonical hang: two PEs each Receive on a channel
	// the other is supposed to fill, but both receive first. The
	// quiescence watchdog must turn the hang into a structured
	// *faults.DeadlockError naming both blocked threads and their
	// channels.
	cfg := NewConfig(2)
	cfg.Deadline = 10 * time.Second // quiescence fires long before this
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, func(p pe.Ctx) graph.Value {
			in0, out0 := p.NewChan(0)
			in1, out1 := p.NewChan(1)
			p.Spawn(1, "peer", func(w pe.Ctx) {
				v := w.Receive(in1) // blocks: root receives before sending
				w.Send(out0, v)
			})
			v := p.Receive(in0) // blocks: peer receives before sending
			p.Send(out1, v)
			return v
		})
		done <- err
	}()
	err := awaitRun(t, done)
	var de *faults.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *faults.DeadlockError", err)
	}
	if de.Backend != "nativeeden" || de.Reason != "quiescence" {
		t.Fatalf("deadlock fields: %+v", de)
	}
	var root, peer *faults.BlockedThread
	for i := range de.Blocked {
		b := &de.Blocked[i]
		if b.PE == 0 && b.Thread == "root" {
			root = b
		}
		if b.PE == 1 && b.Thread == "peer" {
			peer = b
		}
	}
	if root == nil || peer == nil {
		t.Fatalf("diagnostics %v should name both blocked threads", de.Blocked)
	}
	if root.Reason != "channel" || root.Chan < 0 {
		t.Fatalf("root diagnostics should name its channel: %+v", root)
	}
	if peer.Reason != "channel" || peer.Peer != 0 {
		t.Fatalf("peer diagnostics should name channel and creator PE: %+v", peer)
	}
}

func TestEdenInjectedProcPanic(t *testing.T) {
	// Process index 0 (the first spawned thread) dies on entry; the
	// root blocked on its reply must unwind with the typed fault.
	cfg := NewConfig(2)
	cfg.Faults = mustPlan(t, "seed=4,panic-proc=0")
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, func(p pe.Ctx) graph.Value {
			in, out := p.NewChan(0)
			p.Spawn(1, "victim", func(w pe.Ctx) {
				w.Send(out, 1)
			})
			return p.Receive(in)
		})
		done <- err
	}()
	err := awaitRun(t, done)
	var ip *faults.InjectedPanic
	if !errors.As(err, &ip) || ip.Kind != "proc" || ip.Index != 0 {
		t.Fatalf("err = %v, want proc *faults.InjectedPanic index 0", err)
	}
	if c := cfg.Faults.Counts(); c.Panics != 1 {
		t.Fatalf("Counts.Panics = %d, want 1", c.Panics)
	}
}

func TestEdenDroppedMessageBecomesDeadlock(t *testing.T) {
	// Every PE0→PE1 message is dropped, so the spawned process never
	// receives its input and the run quiesces: the watchdog must report
	// it rather than hang, and the drop must be counted.
	cfg := NewConfig(2)
	cfg.Faults = mustPlan(t, "seed=9,drop=1@0-1")
	cfg.Deadline = 10 * time.Second
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, func(p pe.Ctx) graph.Value {
			reqIn, reqOut := p.NewChan(1)
			repIn, repOut := p.NewChan(0)
			p.Spawn(1, "echo", func(w pe.Ctx) {
				w.Send(repOut, w.Receive(reqIn))
			})
			p.Send(reqOut, 7) // dropped
			return p.Receive(repIn)
		})
		done <- err
	}()
	err := awaitRun(t, done)
	var de *faults.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *faults.DeadlockError", err)
	}
	if c := cfg.Faults.Counts(); c.Drops < 1 {
		t.Fatalf("Counts.Drops = %d, want >= 1", c.Drops)
	}
}

func TestEdenDelayedMessagesStillCorrect(t *testing.T) {
	// Delaying every message must slow the run, not change its result.
	cfg := NewConfig(2)
	cfg.Faults = mustPlan(t, "seed=3,delay=1ms:1")
	res, err := Run(cfg, euler.EdenProgram(200, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := euler.SumTotientSieve(200); res.Value.(int64) != want {
		t.Fatalf("delayed run result %v != %d", res.Value, want)
	}
	if c := cfg.Faults.Counts(); c.Delays < 1 {
		t.Fatalf("Counts.Delays = %d, want >= 1", c.Delays)
	}
}

func TestEdenStallInjection(t *testing.T) {
	cfg := NewConfig(2)
	cfg.Faults = mustPlan(t, "stall=1:1ms")
	res, err := Run(cfg, euler.EdenProgram(200, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := euler.SumTotientSieve(200); res.Value.(int64) != want {
		t.Fatalf("stalled run result %v != %d", res.Value, want)
	}
}

func TestEdenFailedRunKeepsEventlog(t *testing.T) {
	// Satellite: failed runs return the partial Result with flushed
	// event rings so tracedump renders the timeline up to the failure.
	cfg := NewConfig(2)
	cfg.EventLog = true
	cfg.Faults = mustPlan(t, "seed=6,panic-proc=0")
	done := make(chan error, 1)
	var res *Result
	go func() {
		r, err := Run(cfg, func(p pe.Ctx) graph.Value {
			in, out := p.NewChan(0)
			p.Spawn(1, "victim", func(w pe.Ctx) { w.Send(out, 1) })
			return p.Receive(in)
		})
		res = r
		done <- err
	}()
	if err := awaitRun(t, done); err == nil {
		t.Fatal("run must fail")
	}
	if res == nil || res.Events == nil {
		t.Fatal("failed run must carry its eventlog")
	}
	if res.Value != nil {
		t.Fatal("failed runs must not leak a value")
	}
	tl := res.Trace()
	if tl == nil || len(tl.Agents()) == 0 {
		t.Fatal("failed run's eventlog must reduce to a renderable timeline")
	}
}

func TestEdenThreadPanicPoisonsClaims(t *testing.T) {
	// A thread dying mid-thunk must poison its claim, so nothing can
	// wait on a permanent black hole, and fail the run with the panic
	// it died of.
	errBoom := errors.New("mid-eval boom")
	boom := graph.NewThunk(func(graph.Context) graph.Value { panic(errBoom) })
	done := make(chan error, 1)
	go func() {
		_, err := Run(NewConfig(2), func(p pe.Ctx) graph.Value {
			in, out := p.NewChan(0)
			p.Spawn(0, "claimant", func(w pe.Ctx) {
				w.Send(out, w.Force(boom))
			})
			return p.Receive(in) // unwinds when the claimant fails the run
		})
		done <- err
	}()
	err := awaitRun(t, done)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the claimant's panic", err)
	}
	if !strings.Contains(err.Error(), `thread "claimant" panicked`) {
		t.Fatalf("err = %v, want it to name the thread", err)
	}
	if boom.State() != graph.Poisoned {
		t.Fatalf("claimed thunk state = %v, want Poisoned", boom.State())
	}
}

func TestEdenFaultReplayDeterministic(t *testing.T) {
	// The replay guarantee: one spec, one failure shape, every run.
	for i := 0; i < 3; i++ {
		cfg := NewConfig(2)
		cfg.Faults = mustPlan(t, "seed=9,drop=1@0-1")
		cfg.Deadline = 10 * time.Second
		done := make(chan error, 1)
		go func() {
			_, err := Run(cfg, func(p pe.Ctx) graph.Value {
				in, out := p.NewChan(1)
				rin, rout := p.NewChan(0)
				p.Spawn(1, "echo", func(w pe.Ctx) { w.Send(rout, w.Receive(in)) })
				p.Send(out, 1)
				return p.Receive(rin)
			})
			done <- err
		}()
		err := awaitRun(t, done)
		var de *faults.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("replay %d: err = %v, want *faults.DeadlockError", i, err)
		}
	}
}
