package parhask_test

import (
	"errors"
	"os"
	"testing"
	"time"

	"parhask"
)

// These tests exercise the public facade exactly as a downstream user
// would: only identifiers exported from the parhask package.

// TestMain lets the cluster facade test re-execute this binary as its
// worker processes, exactly as a downstream main() would.
func TestMain(m *testing.M) {
	parhask.ClusterMaybeWorker()
	os.Exit(m.Run())
}

func TestFacadeClusterSupervised(t *testing.T) {
	cfg := parhask.ClusterConfig{
		Procs: 2, PerProc: 1, Transport: "tcp",
		Spec:     "sumeuler?n=2000&pechunks=4",
		Faults:   "kill-rank=1:20ms",
		Restart:  &parhask.ClusterRestart{Max: 2, Backoff: 20 * time.Millisecond},
		Deadline: 60 * time.Second,
	}
	res, err := parhask.ClusterRunSupervised(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, oracle, err := parhask.ClusterBuildProgram(cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle(res.Value); err != nil {
		t.Fatalf("recovered value fails the oracle: %v", err)
	}
	if res.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", res.Restarts)
	}

	// The unsupervised entry point surfaces the same death structurally.
	cfg.Restart = nil
	if _, err := parhask.ClusterRun(cfg); err == nil {
		t.Fatal("unsupervised kill should fail")
	} else {
		var pd *parhask.ProcessDeathError
		if !errors.As(err, &pd) || pd.Rank != 1 {
			t.Fatalf("want ProcessDeathError for rank 1, got %v", err)
		}
	}
}

func TestFacadeGpHRoundTrip(t *testing.T) {
	cfg := parhask.GpHWorkStealing(4)
	res, err := parhask.RunGpH(cfg, func(ctx *parhask.Ctx) parhask.Value {
		ts := make([]*parhask.Thunk, 8)
		for i := range ts {
			i := i
			ts[i] = parhask.NewStratThunk(func(c *parhask.Ctx) parhask.Value {
				c.Alloc(32 << 10)
				c.Burn(500_000)
				return i
			})
		}
		parhask.ParListWHNF(ctx, ts)
		sum := 0
		for _, th := range ts {
			sum += ctx.Force(th).(int)
		}
		return sum
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 28 {
		t.Fatalf("value = %v, want 28", res.Value)
	}
	if res.Stats.SparksCreated != 8 {
		t.Fatalf("sparks = %d", res.Stats.SparksCreated)
	}
}

func TestFacadeEdenRoundTrip(t *testing.T) {
	cfg := parhask.NewEdenConfig(4, 4)
	res, err := parhask.RunEden(cfg, func(p parhask.PCtx) parhask.Value {
		outs := parhask.ParMap(p, "sq", func(w parhask.PCtx, in parhask.Value) parhask.Value {
			w.Burn(100_000)
			n := in.(int)
			return n * n
		}, []parhask.Value{1, 2, 3, 4})
		sum := 0
		for _, v := range outs {
			sum += v.(int)
		}
		return sum
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 30 {
		t.Fatalf("value = %v, want 30", res.Value)
	}
}

func TestFacadeVariantConstructors(t *testing.T) {
	for _, mk := range []func(int) parhask.GpHConfig{
		parhask.GpHPlainGHC69,
		parhask.GpHBigAllocArea,
		parhask.GpHImprovedSync,
		parhask.GpHWorkStealing,
		parhask.NewGpHConfig,
	} {
		cfg := mk(2)
		if cfg.Cores != 2 {
			t.Fatal("constructor ignored core count")
		}
		res, err := parhask.RunGpH(cfg, func(ctx *parhask.Ctx) parhask.Value {
			ctx.Burn(1000)
			return "ok"
		})
		if err != nil || res.Value != "ok" {
			t.Fatalf("run failed: %v %v", err, res)
		}
	}
}

func TestFacadeCostModel(t *testing.T) {
	m := parhask.DefaultCosts()
	if m.GCDIter <= 0 {
		t.Fatal("bad default cost model")
	}
	cfg := parhask.GpHWorkStealing(2)
	cfg.Costs = m
	cfg.Costs.Timeslice = 1_000_000 // user-tweaked model compiles & runs
	if _, err := parhask.RunGpH(cfg, func(ctx *parhask.Ctx) parhask.Value {
		ctx.Burn(10_000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeChannelsAndStreams(t *testing.T) {
	cfg := parhask.NewEdenConfig(2, 2)
	res, err := parhask.RunEden(cfg, func(p parhask.PCtx) parhask.Value {
		sin, sout := p.NewStream(0)
		p.Spawn(1, "gen", func(w parhask.PCtx) {
			for i := 0; i < 5; i++ {
				w.StreamSend(sout, i)
			}
			w.StreamClose(sout)
		})
		sum := 0
		for {
			v, ok := p.StreamRecv(sin)
			if !ok {
				break
			}
			sum += v.(int)
		}
		return sum
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 10 {
		t.Fatalf("value = %v, want 10", res.Value)
	}
}

func TestFacadeMasterWorker(t *testing.T) {
	cfg := parhask.NewEdenConfig(4, 4)
	res, err := parhask.RunEden(cfg, func(p parhask.PCtx) parhask.Value {
		tasks := []parhask.Value{1, 2, 3, 4, 5}
		out := parhask.MasterWorker(p, "mw", 2, 1,
			func(w parhask.PCtx, task parhask.Value) ([]parhask.Value, parhask.Value) {
				w.Burn(50_000)
				return nil, task.(int) * 2
			}, tasks)
		sum := 0
		for _, v := range out {
			sum += v.(int)
		}
		return sum
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 30 {
		t.Fatalf("value = %v, want 30", res.Value)
	}
}
