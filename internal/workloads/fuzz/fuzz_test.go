package fuzz

import (
	"testing"

	"parhask/internal/gph"
)

func TestExpectedMatchesSingleCore(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p := Generate(seed, 40)
		want := p.Expected()
		res, err := gph.Run(gph.WorkStealingConfig(1), p.Main())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Value != want {
			t.Fatalf("seed %d: got %v, want %d", seed, res.Value, want)
		}
	}
}

func TestCrossConfigEquivalence(t *testing.T) {
	// Every runtime configuration must compute the same value for the
	// same random DAG — sharing, duplication, blocking, stealing and
	// pushing may differ wildly, but referential transparency must hold.
	configs := []struct {
		name string
		mk   func() gph.Config
	}{
		{"plain_2", func() gph.Config { return gph.PlainGHC69(2) }},
		{"plain_8", func() gph.Config { return gph.PlainGHC69(8) }},
		{"bigalloc_4", func() gph.Config { return gph.BigAllocArea(4) }},
		{"sync_4", func() gph.Config { return gph.ImprovedSync(4) }},
		{"steal_lazy_4", func() gph.Config { return gph.WorkStealingConfig(4) }},
		{"steal_eager_4", func() gph.Config {
			c := gph.WorkStealingConfig(4)
			c.EagerBlackholing = true
			return c
		}},
		{"steal_lazy_16", func() gph.Config { return gph.WorkStealingConfig(16) }},
		{"parallel_gc_4", func() gph.Config {
			c := gph.WorkStealingConfig(4)
			c.ParallelGC = true
			return c
		}},
		{"localheaps_8", func() gph.Config { return gph.LocalHeapsConfig(8) }},
		{"tiny_alloc_area_4", func() gph.Config {
			c := gph.WorkStealingConfig(4)
			c.AllocArea = 64 * 1024
			return c
		}},
		{"thread_per_spark_4", func() gph.Config {
			c := gph.WorkStealingConfig(4)
			c.SparkThreads = false
			return c
		}},
	}
	for seed := uint64(100); seed < 112; seed++ {
		p := Generate(seed, 60)
		want := p.Expected()
		for _, cfg := range configs {
			res, err := gph.Run(cfg.mk(), p.Main())
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cfg.name, err)
			}
			if res.Value != want {
				t.Fatalf("seed %d %s: got %v, want %d", seed, cfg.name, res.Value, want)
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Same seed, same config => identical virtual runtimes and stats.
	p := Generate(999, 80)
	cfg := gph.WorkStealingConfig(8)
	a, err := gph.Run(cfg, p.Main())
	if err != nil {
		t.Fatal(err)
	}
	b, err := gph.Run(cfg, p.Main())
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Stats != b.Stats {
		t.Fatalf("nondeterministic replay: %d vs %d", a.Elapsed, b.Elapsed)
	}
}

func TestDeepDependencyChains(t *testing.T) {
	// Chains stress nested forcing and blocking: build a pathological
	// program where every node depends on its predecessor.
	p := &Program{Nodes: make([]Node, 200)}
	for i := range p.Nodes {
		p.Nodes[i].Burn = 20_000
		p.Nodes[i].Alloc = 8 * 1024
		p.Nodes[i].Spark = true
		if i > 0 {
			p.Nodes[i].Deps = []int{i - 1}
		}
	}
	want := p.Expected()
	for _, eager := range []bool{false, true} {
		cfg := gph.WorkStealingConfig(8)
		cfg.EagerBlackholing = eager
		res, err := gph.Run(cfg, p.Main())
		if err != nil {
			t.Fatalf("eager=%v: %v", eager, err)
		}
		if res.Value != want {
			t.Fatalf("eager=%v: got %v, want %d", eager, res.Value, want)
		}
	}
}

func TestWideFanInSharing(t *testing.T) {
	// One expensive node shared by many dependents: heavy duplication
	// under lazy black-holing must still produce the right value.
	p := &Program{Nodes: make([]Node, 65)}
	p.Nodes[0] = Node{Burn: 2_000_000, Alloc: 2 * 1024}
	for i := 1; i < 65; i++ {
		p.Nodes[i] = Node{Burn: 50_000, Alloc: 16 * 1024, Deps: []int{0}, Spark: true}
	}
	want := p.Expected()
	res, err := gph.Run(gph.WorkStealingConfig(8), p.Main())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("got %v, want %d", res.Value, want)
	}
}

func TestHighSparkDensityStress(t *testing.T) {
	// Dense fine-grained DAGs stress the park/wake paths that the
	// lost-wakeup regression (see parfib) exercised.
	for seed := uint64(300); seed < 308; seed++ {
		p := Generate(seed, 300)
		for i := range p.Nodes {
			p.Nodes[i].Burn /= 20 // make every node tiny
			p.Nodes[i].Spark = true
		}
		want := p.Expected()
		for _, cores := range []int{4, 16} {
			res, err := gph.Run(gph.WorkStealingConfig(cores), p.Main())
			if err != nil {
				t.Fatalf("seed %d cores %d: %v", seed, cores, err)
			}
			if res.Value != want {
				t.Fatalf("seed %d cores %d: got %v want %d", seed, cores, res.Value, want)
			}
		}
	}
}
