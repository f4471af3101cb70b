package nativeeden

import (
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"parhask/internal/eden"
	"parhask/internal/eventlog"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/skel"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

func runN(t *testing.T, cfg Config, main pe.Program) *Result {
	t.Helper()
	res, err := Run(cfg, main)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// awaitRun guards the failure-protocol tests: their regression mode is
// a hang (a thread blocked on a placeholder that will never resolve),
// so every Run that is supposed to fail executes under a watchdog.
func awaitRun(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run hung: a blocked thread never unwound")
		return nil
	}
}

func TestChannelRoundTrip(t *testing.T) {
	res := runN(t, NewConfig(2), func(p pe.Ctx) graph.Value {
		reqIn, reqOut := p.NewChan(1)
		repIn, repOut := p.NewChan(0)
		p.Spawn(1, "doubler", func(w pe.Ctx) {
			n := w.Receive(reqIn).(int)
			w.Send(repOut, 2*n)
		})
		p.Send(reqOut, 21)
		return p.Receive(repIn)
	})
	if res.Value != 42 {
		t.Fatalf("value = %v, want 42", res.Value)
	}
	if res.Stats.Messages != 2 {
		t.Fatalf("messages = %d, want 2", res.Stats.Messages)
	}
	if res.Stats.Processes != 1 {
		t.Fatalf("processes = %d, want 1", res.Stats.Processes)
	}
	if res.PerPE[0].MsgsSent != 1 || res.PerPE[1].MsgsSent != 1 {
		t.Fatalf("per-PE sends = %d/%d, want 1/1", res.PerPE[0].MsgsSent, res.PerPE[1].MsgsSent)
	}
	if res.PerPE[0].MsgsRecv != 1 || res.PerPE[1].MsgsRecv != 1 {
		t.Fatalf("per-PE recvs = %d/%d, want 1/1", res.PerPE[0].MsgsRecv, res.PerPE[1].MsgsRecv)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	const n = 10
	res := runN(t, NewConfig(2), func(p pe.Ctx) graph.Value {
		in, out := p.NewStream(0)
		p.Spawn(1, "counter", func(w pe.Ctx) {
			xs := make([]graph.Value, n)
			for i := range xs {
				xs[i] = i
			}
			w.SendAll(out, xs)
		})
		sum := 0
		for i, v := range p.RecvAll(in) {
			if v != i {
				t.Errorf("element %d = %v", i, v)
			}
			sum += v.(int)
		}
		return sum
	})
	if res.Value != n*(n-1)/2 {
		t.Fatalf("sum = %v, want %d", res.Value, n*(n-1)/2)
	}
	// n element messages plus the close.
	if res.Stats.Messages != n+1 {
		t.Fatalf("messages = %d, want %d", res.Stats.Messages, n+1)
	}
	if res.Stats.BytesSent <= int64(n)*eden.ConsOverhead {
		t.Fatalf("bytes = %d, want > cons overhead alone", res.Stats.BytesSent)
	}
}

func TestSendToOwnPE(t *testing.T) {
	// dest == own PE takes the inline transport path (no lock dance).
	res := runN(t, NewConfig(1), func(p pe.Ctx) graph.Value {
		in, out := p.NewChan(0)
		p.Send(out, "hi")
		return p.Receive(in)
	})
	if res.Value != "hi" {
		t.Fatalf("value = %v, want hi", res.Value)
	}
}

// --- cross-runtime oracles: native Eden == simulated Eden == sequential ---

func TestSumEulerOracleAcrossPEs(t *testing.T) {
	const n = 800
	want := euler.SumTotientSieve(n)
	// The PE counts deliberately include 1, a small count, and more PEs
	// than cores (virtual PEs timesliced by the Go scheduler).
	for _, pes := range []int{1, 2, 4, 2*runtime.GOMAXPROCS(0) + 1} {
		res := runN(t, NewConfig(pes), euler.EdenProgram(n, 2, 0))
		if res.Value != want {
			t.Fatalf("pes=%d: value = %v, want %d", pes, res.Value, want)
		}
		sim, err := eden.Run(eden.NewConfig(pes, 8), euler.EdenProgram(n, 2, 0))
		if err != nil {
			t.Fatalf("pes=%d: sim: %v", pes, err)
		}
		if sim.Value != res.Value {
			t.Fatalf("pes=%d: native %v != sim %v", pes, res.Value, sim.Value)
		}
	}
}

func TestCannonOracleNative(t *testing.T) {
	const n = 24
	a, b := matmul.Random(n, 11), matmul.Random(n, 12)
	want := matmul.MulOracle(a, b)
	// q*q processes; pes=4 with q=3 exercises several processes per PE.
	for _, tc := range []struct{ q, pes int }{{1, 1}, {2, 5}, {3, 4}} {
		res := runN(t, NewConfig(tc.pes), matmul.EdenCannonProgram(a, b, tc.q, 0))
		if !matmul.Equal(res.Value.(matmul.Mat), want, 1e-9) {
			t.Fatalf("q=%d pes=%d: Cannon product incorrect", tc.q, tc.pes)
		}
		if res.Stats.Processes != int64(tc.q*tc.q) {
			t.Fatalf("q=%d: processes = %d, want %d", tc.q, res.Stats.Processes, tc.q*tc.q)
		}
	}
}

// The bytes-shipped columns are comparable across backends (DESIGN.md
// §8): Cannon sends the same messages, charged the same bytes (a stream
// close included), on the simulator and on native Eden at any PE count.
func TestCannonTrafficMatchesSimulator(t *testing.T) {
	const n, q = 48, 4
	a, b := matmul.Random(n, 31), matmul.Random(n, 32)
	cfg := eden.NewConfig(q*q+1, 8)
	sim, err := eden.Run(cfg, matmul.EdenCannonProgram(a, b, q, cfg.Costs.MulAdd))
	if err != nil {
		t.Fatal(err)
	}
	for _, pes := range []int{1, 3, q*q + 1} {
		res := runN(t, NewConfig(pes), matmul.EdenCannonProgram(a, b, q, 0))
		if res.Stats.Messages != int64(sim.Stats.Messages) || res.Stats.BytesSent != sim.Stats.BytesSent {
			t.Fatalf("pes=%d: native Eden sent %d messages, %d bytes; the simulator %d messages, %d bytes",
				pes, res.Stats.Messages, res.Stats.BytesSent, sim.Stats.Messages, sim.Stats.BytesSent)
		}
	}
}

func TestAPSPRingOracleNative(t *testing.T) {
	g := apsp.RandomGraph(30, 13, 9, 30)
	want := apsp.FloydWarshall(g)
	for _, p := range []int{1, 3, 5} {
		res := runN(t, NewConfig(p+1), apsp.EdenRingProgram(g, p, 0))
		if !apsp.Equal(res.Value.(apsp.Graph), want) {
			t.Fatalf("p=%d: wrong distances", p)
		}
	}
}

// --- skeleton coverage on the native backend ---

func TestParMapOnNative(t *testing.T) {
	res := runN(t, NewConfig(4), func(p pe.Ctx) graph.Value {
		inputs := make([]graph.Value, 10)
		for i := range inputs {
			inputs[i] = i
		}
		out := skel.ParMap(p, "sq", func(w pe.Ctx, in graph.Value) graph.Value {
			n := in.(int)
			return n * n
		}, inputs)
		sum := 0
		for i, v := range out {
			if v != i*i {
				t.Errorf("out[%d] = %v, want %d", i, v, i*i)
			}
			sum += v.(int)
		}
		return sum
	})
	if res.Value != 285 {
		t.Fatalf("sum = %v, want 285", res.Value)
	}
	if res.Stats.Processes != 10 {
		t.Fatalf("processes = %d, want 10", res.Stats.Processes)
	}
}

func TestMasterWorkerOnNative(t *testing.T) {
	res := runN(t, NewConfig(3), func(p pe.Ctx) graph.Value {
		initial := make([]graph.Value, 8)
		for i := range initial {
			initial[i] = i + 1
		}
		out := skel.MasterWorker(p, "mw", 2, 2, func(w pe.Ctx, task graph.Value) ([]graph.Value, graph.Value) {
			n := task.(int)
			// Tasks above 4 split once: dynamic task creation through the
			// master's work queue.
			if n > 4 {
				return []graph.Value{n - 4}, n * n
			}
			return nil, n * n
		}, initial)
		got := make([]int, len(out))
		for i, v := range out {
			got[i] = v.(int)
		}
		sort.Ints(got)
		return got
	})
	want := []int{1, 1, 4, 4, 9, 9, 16, 16, 25, 36, 49, 64}
	got := res.Value.([]int)
	if len(got) != len(want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("results = %v, want %v", got, want)
		}
	}
}

func TestNestedSpawnTreeOnNative(t *testing.T) {
	// Sum 1..64 over a two-level process tree: the root spawns two
	// children and each child spawns two leaves itself, so Spawn runs
	// from non-root threads too.
	var sum func(w pe.Ctx, lo, hi, depth int) int
	sum = func(w pe.Ctx, lo, hi, depth int) int {
		if depth == 0 {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			return s
		}
		mid := (lo + hi) / 2
		var ins [2]pe.Inport
		for k, h := range [2][2]int{{lo, mid}, {mid, hi}} {
			in, out := w.NewChan(w.PE())
			ins[k] = in
			w.Spawn(w.PE()+1+k, "sum", func(c pe.Ctx) {
				c.Send(out, sum(c, h[0], h[1], depth-1))
			})
		}
		return w.Receive(ins[0]).(int) + w.Receive(ins[1]).(int)
	}
	res := runN(t, NewConfig(4), func(p pe.Ctx) graph.Value { return sum(p, 1, 65, 2) })
	if res.Value != 64*65/2 {
		t.Fatalf("value = %v, want %d", res.Value, 64*65/2)
	}
	if res.Stats.Processes != 6 {
		t.Fatalf("processes = %d, want 2 children + 4 leaves", res.Stats.Processes)
	}
}

// --- heap isolation: copy-on-send ---

func TestSendCopiesSliceAcrossHeaps(t *testing.T) {
	// The sender mutates its slice immediately after Send; the receiver
	// must see the values as sent. Under -race this also proves the copy
	// shares no backing array with the original.
	res := runN(t, NewConfig(2), func(p pe.Ctx) graph.Value {
		in, out := p.NewChan(1)
		repIn, repOut := p.NewChan(0)
		p.Spawn(1, "reader", func(w pe.Ctx) {
			xs := w.Receive(in).([]float64)
			sum := 0.0
			for _, x := range xs {
				sum += x
			}
			w.Send(repOut, sum)
		})
		xs := []float64{1, 2, 3}
		p.Send(out, xs)
		xs[0] = 99 // must not reach the receiver
		return p.Receive(repIn)
	})
	if res.Value != 6.0 {
		t.Fatalf("receiver saw %v, want 6 (copy shared the sender's array)", res.Value)
	}
}

func TestCopyForSendFreshThunks(t *testing.T) {
	inner := []float64{1, 2}
	orig := graph.NewValue(inner)
	c, err := eden.CopyChecked([]graph.Value{orig})
	if err != nil {
		t.Fatal(err)
	}
	ct := c.([]graph.Value)[0].(*graph.Thunk)
	if ct == orig {
		t.Fatal("copied message aliases the sender's thunk node")
	}
	inner[0] = 99
	if got := ct.Value().([]float64)[0]; got != 1 {
		t.Fatalf("copied payload = %v, want 1 (shares the sender's array)", got)
	}
}

// A struct with unexported fields is not a message type unless it
// copies itself; the refusal names the type.
func TestCopyForSendRejectsUnexported(t *testing.T) {
	type hidden struct{ xs []int }
	if _, err := eden.CopyChecked(&hidden{xs: []int{1}}); err == nil ||
		!strings.Contains(err.Error(), "*nativeeden.hidden") {
		t.Fatalf("err = %v, want a refusal naming *nativeeden.hidden", err)
	}
}

// --- failure protocol ---

func TestSendUnevaluatedRaisesSendError(t *testing.T) {
	// A placeholder hidden inside a Cons survives ForceDeep (which does
	// not traverse Cons) and must be caught by the packing check, raising
	// the same structured *eden.SendError as the simulator.
	done := make(chan error, 1)
	go func() {
		_, err := Run(NewConfig(2), func(p pe.Ctx) graph.Value {
			_, out := p.NewChan(1)
			var caught error
			func() {
				defer func() {
					if v := recover(); v != nil {
						caught, _ = v.(error)
					}
				}()
				p.Send(out, []graph.Value{eden.Cons{Head: graph.NewPlaceholder()}})
			}()
			var se *eden.SendError
			if !errors.As(caught, &se) {
				t.Errorf("recovered %v, want *eden.SendError", caught)
				return 0
			}
			if se.Op != "Send" || se.PE != 0 || se.Dest != 1 {
				t.Errorf("SendError = %+v, want Op=Send PE=0 Dest=1", se)
			}
			var ue *eden.UnevaluatedError
			if !errors.As(caught, &ue) {
				t.Errorf("SendError does not unwrap to *eden.UnevaluatedError: %v", caught)
			}
			return 0
		})
		done <- err
	}()
	if err := awaitRun(t, done); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnedThreadPanicFailsRun(t *testing.T) {
	// The root blocks in Receive while a spawned thread panics: the
	// failure must unwind the blocked root and name the thread.
	done := make(chan error, 1)
	go func() {
		_, err := Run(NewConfig(2), func(p pe.Ctx) graph.Value {
			in, _ := p.NewChan(0)
			p.Spawn(1, "bomber", func(w pe.Ctx) {
				panic("worker boom")
			})
			return p.Receive(in)
		})
		done <- err
	}()
	err := awaitRun(t, done)
	if err == nil || !strings.Contains(err.Error(), `PE 1 thread "bomber" panicked: worker boom`) {
		t.Fatalf("err = %v, want the spawned thread's panic", err)
	}
}

func TestRootPanicUnblocksSpawnedThread(t *testing.T) {
	// A spawned thread blocks in Receive while the root panics: Run must
	// return (the join barrier requires the blocked thread to unwind).
	done := make(chan error, 1)
	go func() {
		_, err := Run(NewConfig(2), func(p pe.Ctx) graph.Value {
			in, _ := p.NewChan(1)
			p.Spawn(1, "waiter", func(w pe.Ctx) {
				w.Receive(in)
			})
			panic("root boom")
		})
		done <- err
	}()
	err := awaitRun(t, done)
	if err == nil || !strings.Contains(err.Error(), "root process panicked: root boom") {
		t.Fatalf("err = %v, want the root panic", err)
	}
}

func TestReceiveTwicePanics(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(NewConfig(1), func(p pe.Ctx) graph.Value {
			in, out := p.NewChan(0)
			p.Send(out, 1)
			p.Receive(in)
			return p.Receive(in)
		})
		done <- err
	}()
	err := awaitRun(t, done)
	var me *eden.ChanMisuseError
	if !errors.As(err, &me) || me.Op != "Receive" || me.Reason != "already-received" {
		t.Fatalf("err = %v, want a *ChanMisuseError with the double-receive diagnosis", err)
	}
}

// --- telemetry ---

func TestStatsConsistency(t *testing.T) {
	res := runN(t, NewConfig(4), euler.EdenProgram(400, 2, 0))
	var sent, recv, bytesS, bytesR, threads int64
	for _, ps := range res.PerPE {
		sent += ps.MsgsSent
		recv += ps.MsgsRecv
		bytesS += ps.BytesSent
		bytesR += ps.BytesRecv
		threads += ps.Threads
	}
	if sent != recv {
		t.Fatalf("msgs sent %d != msgs received %d", sent, recv)
	}
	if bytesS != bytesR {
		t.Fatalf("bytes sent %d != bytes received %d", bytesS, bytesR)
	}
	if res.Stats.Messages != sent || res.Stats.BytesSent != bytesS {
		t.Fatalf("aggregate %+v != per-PE sums (%d msgs, %d bytes)", res.Stats, sent, bytesS)
	}
	if threads != res.Stats.ThreadsCreated {
		t.Fatalf("per-PE threads %d != ThreadsCreated %d", threads, res.Stats.ThreadsCreated)
	}
	if res.Stats.Processes == 0 || res.Stats.BytesSent == 0 {
		t.Fatalf("empty telemetry: %+v", res.Stats)
	}
	for i, ps := range res.PerPE {
		if ps.ArenaThunks == 0 && (ps.MsgsRecv > 0) {
			t.Fatalf("PE %d received messages but allocated no arena cells", i)
		}
	}
	if res.GC.BytesAlloc <= 0 {
		t.Fatalf("GC.BytesAlloc = %d, want > 0", res.GC.BytesAlloc)
	}
}

func TestEventLogTimelines(t *testing.T) {
	cfg := NewConfig(3)
	cfg.EventLog = true
	res := runN(t, cfg, euler.EdenProgram(300, 2, 0))
	if res.Events == nil {
		t.Fatal("EventLog requested but Result.Events is nil")
	}
	var sends, recvs, commPairs int
	for i := 0; i < res.Events.Workers(); i++ {
		depth := 0
		for _, e := range res.Events.Events(i) {
			switch e.Type {
			case eventlog.MsgSend:
				sends++
			case eventlog.MsgRecv:
				recvs++
			case eventlog.CommBegin:
				depth++
			case eventlog.CommEnd:
				depth--
				commPairs++
			}
			if depth < 0 {
				t.Fatalf("PE %d: CommEnd without CommBegin", i)
			}
		}
		if depth != 0 {
			t.Fatalf("PE %d: %d unclosed comm brackets", i, depth)
		}
	}
	if int64(sends) != res.Stats.Messages || int64(recvs) != res.Stats.Messages {
		t.Fatalf("eventlog saw %d sends / %d recvs, stats say %d messages",
			sends, recvs, res.Stats.Messages)
	}
	if commPairs == 0 {
		t.Fatal("no comm brackets recorded")
	}
	tr := res.Trace()
	if tr == nil {
		t.Fatal("Trace() = nil with events present")
	}
	agents := tr.Agents()
	if len(agents) != 3 {
		t.Fatalf("trace has %d agents, want 3", len(agents))
	}
	for i, a := range agents {
		want := "pe" + string(rune('0'+i))
		if a.Name != want {
			t.Fatalf("agent %d named %q, want %q", i, a.Name, want)
		}
	}
}

func TestReportJSONShape(t *testing.T) {
	res := runN(t, NewConfig(2), euler.EdenProgram(200, 2, 0))
	rep := res.Report()
	if rep.PEs != 2 || rep.WallNS <= 0 || len(rep.PerPE) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Total != res.Stats {
		t.Fatalf("report total %+v != stats %+v", rep.Total, res.Stats)
	}
}
