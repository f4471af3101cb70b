package cluster

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"parhask/internal/faults"
)

// TestMain makes the test binary cluster-capable: when the coordinator
// under test re-executes it with the worker environment set,
// MaybeWorker runs the worker and exits instead of running the tests
// again.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

func runOK(t *testing.T, cfg Config) *Result {
	t.Helper()
	if cfg.Deadline == 0 {
		cfg.Deadline = 60 * time.Second
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	_, oracle, err := BuildProgram(cfg.Spec)
	if err != nil {
		t.Fatalf("BuildProgram(%q): %v", cfg.Spec, err)
	}
	if err := oracle(res.Value); err != nil {
		t.Fatalf("cluster result fails the oracle: %v", err)
	}
	return res
}

func TestClusterSumEulerTCP(t *testing.T) {
	res := runOK(t, Config{
		Procs: 3, PerProc: 2, Transport: "tcp",
		Spec: "sumeuler?n=1500&pechunks=2", EventLog: true,
	})
	if res.Total.Messages == 0 || res.Total.BytesSent == 0 {
		t.Fatalf("no cross-PE traffic counted: %+v", res.Total)
	}
	if len(res.PerPE) != 6 {
		t.Fatalf("PerPE has %d slots, want 6", len(res.PerPE))
	}
	if res.Timeline == nil {
		t.Fatal("EventLog requested but Timeline is nil")
	}
	if len(res.Timeline.Agents) != 6 {
		t.Fatalf("timeline has agents %v, want 6 global PEs", res.Timeline.Agents)
	}
	for i, a := range res.Timeline.Agents {
		if want := "pe" + string(rune('0'+i)); a != want {
			t.Fatalf("timeline agent %d = %q, want %q", i, a, want)
		}
	}
	if res.WallNS <= 0 {
		t.Fatalf("rank 0 wall time %d", res.WallNS)
	}
}

func TestClusterAPSPUnix(t *testing.T) {
	// Four processes is the widest cluster any test spawns.
	for _, procs := range []int{3, 4} {
		res := runOK(t, Config{
			Procs: procs, PerProc: 1, Transport: "unix",
			Spec: fmt.Sprintf("apsp?n=24&ring=%d&seed=7", procs),
		})
		// The ring sends row blocks around every process boundary; silence
		// would mean the run never left one process.
		if res.Total.Messages == 0 {
			t.Fatalf("%d-process APSP ring moved no messages between processes", procs)
		}
	}
}

func TestClusterMatmulTCP(t *testing.T) {
	runOK(t, Config{
		Procs: 2, PerProc: 2, Transport: "tcp",
		Spec: "matmul?n=16&q=2&seed=1",
	})
}

func TestClusterKillRank(t *testing.T) {
	// Rank 1 kills itself mid-run. The coordinator must come back with a
	// structured ProcessDeathError naming the rank and its PEs — and
	// come back promptly, not by deadline.
	start := time.Now()
	_, err := Run(Config{
		Procs: 3, PerProc: 2, Transport: "tcp",
		Spec:     "sumeuler?n=4000&pechunks=4",
		Faults:   "kill-rank=1:30ms",
		Deadline: 60 * time.Second,
	})
	if err == nil {
		t.Fatal("killed worker, but Run returned no error")
	}
	var pd *faults.ProcessDeathError
	if !errors.As(err, &pd) {
		t.Fatalf("want *faults.ProcessDeathError, got %T: %v", err, err)
	}
	if pd.Rank != 1 {
		t.Fatalf("death reported for rank %d, want 1", pd.Rank)
	}
	if len(pd.PEs) != 2 || pd.PEs[0] != 2 || pd.PEs[1] != 3 {
		t.Fatalf("death reports PEs %v, want [2 3]", pd.PEs)
	}
	if !faults.IsStructured(err) {
		t.Fatalf("process death not recognised as structured: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("took %v to notice a dead worker", elapsed)
	}
}

func TestClusterSeverRank(t *testing.T) {
	// Rank 2's link is cut while its process lives on. The coordinator
	// sees the closed connection and reports the same fault class.
	_, err := Run(Config{
		Procs: 3, PerProc: 1, Transport: "unix",
		Spec:     "sumeuler?n=4000&pechunks=4",
		Faults:   "sever-rank=2:30ms",
		Deadline: 60 * time.Second,
	})
	if err == nil {
		t.Fatal("severed link, but Run returned no error")
	}
	var pd *faults.ProcessDeathError
	if !errors.As(err, &pd) {
		t.Fatalf("want *faults.ProcessDeathError, got %T: %v", err, err)
	}
	if pd.Rank != 2 {
		t.Fatalf("death reported for rank %d, want 2", pd.Rank)
	}
	if !strings.HasPrefix(pd.Reason, "connection") {
		t.Fatalf("severed link reported as %q, want a connection reason", pd.Reason)
	}
}

func TestClusterSingleProcess(t *testing.T) {
	// Procs=1 is a legal degenerate cluster: one worker process, no
	// cross-process traffic, same protocol.
	res := runOK(t, Config{
		Procs: 1, PerProc: 4, Transport: "tcp",
		Spec: "sumeuler?n=1000&pechunks=2",
	})
	if len(res.PerPE) != 4 {
		t.Fatalf("PerPE has %d slots, want 4", len(res.PerPE))
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Procs: 0, PerProc: 1, Transport: "tcp", Spec: "sumeuler"},
		{Procs: 2, PerProc: 0, Transport: "tcp", Spec: "sumeuler"},
		{Procs: 2, PerProc: 1, Transport: "carrier-pigeon", Spec: "sumeuler"},
		{Procs: 2, PerProc: 1, Transport: "tcp", Spec: "quicksort"},
		{Procs: 2, PerProc: 1, Transport: "tcp", Spec: "sumeuler?n=2000;chunks=2"},
		{Procs: 2, PerProc: 1, Transport: "tcp", Spec: "sumeuler", Faults: "kill-rank=1"},
		// Bad workload geometry must be a Validate error, not a panic
		// out of an eager program constructor.
		{Procs: 2, PerProc: 1, Transport: "tcp", Spec: "matmul?n=16&q=3"},
		{Procs: 2, PerProc: 1, Transport: "tcp", Spec: "matmul?n=16&q=0"},
		{Procs: 2, PerProc: 1, Transport: "tcp", Spec: "apsp?n=16&ring=0"},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad config", cfg)
		}
	}
	good := Config{Procs: 2, PerProc: 2, Transport: "unix", Spec: "apsp?n=16&ring=2", Faults: "kill-rank=0:5ms"}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v): %v", good, err)
	}
}

func TestBuildProgramSpecs(t *testing.T) {
	for _, spec := range []string{"sumeuler", "sumeuler?n=500&chunks=3", "apsp?n=12&ring=2&seed=3", "matmul?n=8&q=2"} {
		prog, oracle, err := BuildProgram(spec)
		if err != nil {
			t.Fatalf("BuildProgram(%q): %v", spec, err)
		}
		if prog == nil || oracle == nil {
			t.Fatalf("BuildProgram(%q) returned nil parts", spec)
		}
	}
	if _, _, err := BuildProgram("unknown?x=1"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("unknown workload error = %v", err)
	}
}

// TestSpecValidation: a spec that does not say what it means is
// rejected with an error naming the offending key, by Validate, before
// anything is generated or launched — never run at the defaults, never
// a panic.
func TestSpecValidation(t *testing.T) {
	bad := []struct{ spec, names string }{
		{"apsp?n=abc", "n"},        // not an integer (ran n=32)
		{"apsp?nodes=64", "nodes"}, // unknown key (ran n=32)
		{"apsp?n=-1", "n"},         // makeslice panic inside Validate
		{"sumeuler?n=-5", "n"},     // accepted
		{"matmul?n=0&q=2", "n"},    // accepted
		{"sumeuler?pechunks=0", "pechunks"},
		{"sumeuler?chunks=0", "chunks"}, // accepted
		{"apsp?n=8&n=9", "n"},           // repeated key
		{"mandel?n=8", "mandel"},        // in the table, not cluster-built
	}
	for _, c := range bad {
		cfg := Config{Procs: 1, PerProc: 1, Transport: "unix", Spec: c.spec}
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("Validate(%q) = %v, want an error naming %q", c.spec, err, c.names)
		}
		if _, _, berr := BuildProgram(c.spec); berr == nil {
			t.Errorf("BuildProgram(%q) accepted a bad spec", c.spec)
		}
	}
	for _, spec := range []string{"sumeuler?n=500&chunks=3", "apsp?n=12&ring=2&seed=3", "matmul?n=8&q=2"} {
		cfg := Config{Procs: 1, PerProc: 1, Transport: "unix", Spec: spec}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", spec, err)
		}
	}
}

// TestGoldenClusterRingInput pins the graph the benchmark's
// cluster_ring workload runs: the hash was computed at the parent of
// the workload-table refactor from apsp.RandomGraph(128, 1, 40, 4), the
// call the old registry made for this spec, so the instance cannot
// drift without this test saying so.
func TestGoldenClusterRingInput(t *testing.T) {
	inst, err := specInstance("apsp?n=128&ring=32&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inst.InputHash(), uint64(0xd2ab9cc0bb317c64); got != want {
		t.Fatalf("cluster_ring input hash = %#x, want %#x", got, want)
	}
}
