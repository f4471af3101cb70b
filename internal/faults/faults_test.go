package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"seed=42,panic-spark=17",
		"seed=7,panic-proc=3",
		"seed=9,drop=0.1",
		"seed=9,drop=0.25@0-2",
		"seed=9,delay=2ms:0.3",
		"seed=5,delay=1ms:0.5@1-*",
		"seed=3,stall=1:5ms",
		"seed=11,panic-spark=2,panic-spark=9,drop=0.05@*-0,delay=500µs:0.2,stall=0:1ms,stall=3:2ms",
		"kill-rank=1:150ms",
		"sever-rank=2:1s",
		"seed=6,kill-rank=0:10ms,kill-rank=2:20ms,sever-rank=1:30ms",
		"flap-rank=1:40ms:150ms",
		"wedge-rank=2:25ms",
		"seed=4,kill-rank=1:10ms,rank-faults=every",
		"seed=8,flap-rank=0:5ms:50ms,flap-rank=2:1ms:2ms,wedge-rank=1:3ms",
		"seed=0,drop=0.1", // an absent seed parses as 1, so seed 0 must print
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		got := p.String()
		p2, err := Parse(got)
		if err != nil {
			t.Fatalf("Parse(String()=%q): %v", got, err)
		}
		if p2.String() != got {
			t.Errorf("round trip not stable: %q -> %q -> %q", spec, got, p2.String())
		}
	}
}

func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"seed=42,panic-spark=17", "seed=9,drop=0.25@0-2", "seed=5,delay=1ms:0.5@1-*",
		"seed=11,panic-spark=2,drop=0.05@*-0,delay=500µs:0.2,stall=0:1ms,stall=3:2ms",
		"seed=6,kill-rank=0:10ms,sever-rank=1:30ms", "flap-rank=1:40ms:150ms",
		"seed=4,wedge-rank=2:25ms,rank-faults=every", "drop=NaN", "delay=1ms:NaN",
		"drop=1e-400", "drop=-0", "stall=1:1.5ns", "", ",", "seed=0", "drop=0.1@0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || p == nil {
			return
		}
		for _, e := range p.Edges {
			if !(e.DropProb >= 0 && e.DropProb <= 1 && e.DelayProb >= 0 && e.DelayProb <= 1) {
				t.Fatalf("%q: accepted probability outside [0,1]: %+v", spec, e)
			}
			if e.Delay < 0 || e.DelayProb > 0 && e.Delay == 0 { // drop rules carry no duration
				t.Fatalf("%q: accepted non-positive delay %v", spec, e.Delay)
			}
		}
		var durs []time.Duration
		for _, m := range []map[int]time.Duration{p.Stall, p.KillRank, p.SeverRank, p.WedgeRank} {
			for _, d := range m {
				durs = append(durs, d)
			}
		}
		for _, r := range p.FlapRank {
			durs = append(durs, r.At, r.Down)
		}
		for _, d := range durs {
			if d <= 0 {
				t.Fatalf("%q: accepted non-positive duration %v", spec, d)
			}
		}
		got := p.String()
		p2, err := Parse(got)
		if err != nil {
			t.Fatalf("%q → %q does not parse: %v", spec, got, err)
		}
		if again := p2.String(); again != got {
			t.Fatalf("round trip not stable: %q → %q → %q", spec, got, again)
		}
	})
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("")
	if err != nil || p != nil {
		t.Fatalf("Parse(\"\") = %v, %v; want nil, nil", p, err)
	}
	if !p.Empty() {
		t.Error("nil plan should be Empty")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"nonsense",
		"seed=x",
		"panic-spark=-1",
		"drop=1.5",
		"drop=NaN", // NaN compares false both ways, so it needs its own reject
		"delay=1ms:NaN",
		"drop=0.1@0",
		"drop=0.1@a-b",
		"delay=0.5",             // missing duration
		"delay=banana:0.5",      // bad duration
		"delay=-1ms:0.5",        // non-positive duration
		"stall=1",               // missing duration
		"stall=x:1ms",           // bad PE
		"stall=1:0s",            // non-positive duration
		"frob=1",                // unknown clause
		"kill-rank=1",           // missing duration
		"kill-rank=x:1ms",       // bad rank
		"kill-rank=-1:1ms",      // negative rank
		"kill-rank=1:0s",        // non-positive duration
		"sever-rank=2",          // missing duration
		"sever-rank=a:5ms",      // bad rank
		"sever-rank=0:-1ms",     // non-positive duration
		"flap-rank=1:5ms",       // missing outage
		"flap-rank=x:5ms:5ms",   // bad rank
		"flap-rank=1:0s:5ms",    // non-positive onset
		"flap-rank=1:5ms:0s",    // non-positive outage
		"wedge-rank=1",          // missing duration
		"wedge-rank=b:1ms",      // bad rank
		"wedge-rank=1:-2ms",     // non-positive duration
		"rank-faults=sometimes", // unknown mode
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestSparkAndProcFaults(t *testing.T) {
	p, err := Parse("seed=1,panic-spark=2,panic-proc=0")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(p)
	for i := 0; i < 5; i++ {
		f := in.SparkFault()
		if (i == 2) != (f != nil) {
			t.Errorf("spark %d: fault=%v", i, f)
		}
		if f != nil && (f.Kind != "spark" || f.Index != 2 || f.Seed != 1) {
			t.Errorf("spark fault fields: %+v", f)
		}
	}
	if f := in.ProcFault(); f == nil || f.Kind != "proc" || f.Index != 0 {
		t.Errorf("proc fault: %+v", f)
	}
	if f := in.ProcFault(); f != nil {
		t.Errorf("proc 1 should be clean, got %+v", f)
	}
	if c := in.Counts(); c.Panics != 2 {
		t.Errorf("Counts.Panics = %d, want 2", c.Panics)
	}
}

func TestMessageFateDeterministic(t *testing.T) {
	plan := &Plan{Seed: 99, Edges: []EdgeRule{{Src: Any, Dst: Any, DropProb: 0.3, DelayProb: 0.3, Delay: time.Millisecond}}}
	run := func() []Fate {
		in := NewInjector(plan)
		fates := make([]Fate, 200)
		for i := range fates {
			fates[i], _ = in.MessageFate(0, 1)
		}
		return fates
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fate %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}
	var drops, delays int
	for _, f := range a {
		switch f {
		case Drop:
			drops++
		case Delay:
			delays++
		}
	}
	if drops == 0 || delays == 0 {
		t.Errorf("with p=0.3 over 200 messages expected both drops (%d) and delays (%d)", drops, delays)
	}
}

func TestMessageFateSeedSensitive(t *testing.T) {
	fates := func(seed uint64) []Fate {
		in := NewInjector(&Plan{Seed: seed, Edges: []EdgeRule{{Src: Any, Dst: Any, DropProb: 0.5}}})
		out := make([]Fate, 64)
		for i := range out {
			out[i], _ = in.MessageFate(0, 1)
		}
		return out
	}
	a, b := fates(1), fates(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fate sequences")
	}
}

func TestMessageFateEdgeMatch(t *testing.T) {
	plan := &Plan{Seed: 4, Edges: []EdgeRule{{Src: 0, Dst: 2, DropProb: 1}}}
	in := NewInjector(plan)
	if f, _ := in.MessageFate(0, 2); f != Drop {
		t.Error("edge 0-2 should always drop at p=1")
	}
	if f, _ := in.MessageFate(1, 2); f != Deliver {
		t.Error("edge 1-2 should not match rule for 0-2")
	}
	if f, _ := in.MessageFate(0, 1); f != Deliver {
		t.Error("edge 0-1 should not match rule for 0-2")
	}
}

func TestStall(t *testing.T) {
	p, err := Parse("stall=2:3ms")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(p)
	if d := in.StallDur(2); d != 3*time.Millisecond {
		t.Errorf("StallDur(2) = %v", d)
	}
	if d := in.StallDur(0); d != 0 {
		t.Errorf("StallDur(0) = %v, want 0", d)
	}
	in.NoteStall()
	if c := in.Counts(); c.Stalls != 1 {
		t.Errorf("Counts.Stalls = %d", c.Stalls)
	}
}

func TestErrorTypes(t *testing.T) {
	ip := &InjectedPanic{Kind: "spark", Index: 7, Seed: 3}
	wrapped := fmt.Errorf("native: thread panic: %w", ip)
	var got *InjectedPanic
	if !errors.As(wrapped, &got) || got.Index != 7 {
		t.Error("InjectedPanic should survive %w wrapping")
	}
	if !IsStructured(wrapped) {
		t.Error("IsStructured(InjectedPanic)")
	}

	de := &DeadlockError{
		Backend: "nativeeden", Reason: "quiescence", Elapsed: time.Second,
		Blocked: []BlockedThread{{PE: 1, Thread: "recv", Reason: "channel", Chan: 4, Peer: 0}},
	}
	if !IsStructured(de) {
		t.Error("IsStructured(DeadlockError)")
	}
	msg := de.Error()
	for _, want := range []string{"deadlock", "quiescence", "PE 1", "recv", "channel #4", "from PE 0"} {
		if !contains(msg, want) {
			t.Errorf("DeadlockError message %q missing %q", msg, want)
		}
	}
	pd := &ProcessDeathError{Rank: 2, PEs: []int{4, 5}, Reason: "connection closed", Err: errors.New("EOF")}
	if !IsStructured(fmt.Errorf("cluster: %w", pd)) {
		t.Error("IsStructured(ProcessDeathError)")
	}
	pmsg := pd.Error()
	for _, want := range []string{"rank 2", "connection closed", "[4 5]", "EOF"} {
		if !contains(pmsg, want) {
			t.Errorf("ProcessDeathError message %q missing %q", pmsg, want)
		}
	}

	if IsStructured(errors.New("plain")) {
		t.Error("IsStructured(plain error) should be false")
	}
	if IsStructured(nil) {
		t.Error("IsStructured(nil) should be false")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
