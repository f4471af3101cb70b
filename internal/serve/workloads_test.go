package serve

import (
	"encoding/json"
	"errors"
	"testing"

	"parhask/internal/workloads/fuzz"
)

// TestGoldenServeMixInputs pins the inputs of the benchmark's nine
// serve_mix request shapes. The hashes (FNV-1a over fmt's %v of the
// generated inputs) were computed at the parent of the workload-table
// refactor from the calls the old buildJob made — matmul.Random(n, 1)
// and (n, 2), apsp.RandomGraph(n, 7, 100, 50), fuzz.Generate(1, n),
// mandel.DefaultParams(w, h), and n itself for sumeuler — so the served
// instances cannot drift without this test saying so.
func TestGoldenServeMixInputs(t *testing.T) {
	shapes := []struct {
		name string
		req  JobRequest
		want uint64
	}{
		{"sumeuler_gph", JobRequest{Workload: "sumeuler", N: 1500}, 0xf45fd8f0ea8fbb83},
		{"sumeuler_eden_memo", JobRequest{Workload: "sumeuler", N: 800, Backend: "eden"}, 0x94a42a184559807f},
		{"matmul_gph", JobRequest{Workload: "matmul", N: 192}, 0xd3c818b12fa7a3a0},
		{"matmul_eden", JobRequest{Workload: "matmul", N: 128, Backend: "eden"}, 0x0c3c32781ee9b57c},
		{"apsp_gph", JobRequest{Workload: "apsp", N: 96}, 0xf6ed5bd823b8261c},
		{"apsp_eden", JobRequest{Workload: "apsp", N: 128, Backend: "eden"}, 0xcc5c258d9519dcbf},
		{"fuzz_gph", JobRequest{Workload: "fuzz", N: 400}, 0xaf70d7f3a62e65f2},
		{"mandel_gph", JobRequest{Workload: "mandel", Width: 128, Height: 96}, 0xc6497695957b767c},
		{"mandel_eden", JobRequest{Workload: "mandel", Width: 96, Height: 72, Backend: "eden"}, 0x81d5afdbe64bb328},
	}
	for _, sh := range shapes {
		b, err := buildJob(sh.req, 4)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if got := b.inst.InputHash(); got != sh.want {
			t.Errorf("%s (%s): input hash %#x, want %#x", sh.name, b.inst.Spec(), got, sh.want)
		}
	}
}

// TestServeShapesPerSurface pins the service's own Eden shapes and GpH
// decomposition — values the command lines set differently.
func TestServeShapesPerSurface(t *testing.T) {
	for _, c := range []struct {
		req  JobRequest
		pes  int
		want string
	}{
		{JobRequest{Workload: "sumeuler"}, 4, "sumeuler?chunks=16&n=1000&pechunks=2"},
		{JobRequest{Workload: "matmul", N: 64, Seed: 9}, 4, "matmul?block=16&n=64&q=2&seed=9"},
		{JobRequest{Workload: "apsp"}, 4, "apsp?density=50&maxw=100&n=32&ring=3&seed=7"},
		{JobRequest{Workload: "apsp", N: 16}, 1, "apsp?density=50&maxw=100&n=16&ring=1&seed=7"},
		{JobRequest{Workload: "mandel", N: 999}, 4, "mandel?height=48&n=64"},
	} {
		b, err := buildJob(c.req, c.pes)
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		if got := b.inst.Spec(); got != c.want {
			t.Errorf("buildJob(%+v, pes=%d) built %s, want %s", c.req, c.pes, got, c.want)
		}
	}
}

// TestOracleCacheBounded: ten times the cache's bound in distinct
// seeds leaves at most the bound cached, and every response — cached
// oracle, fresh oracle or one recomputed after eviction — was checked
// against the right reference.
func TestOracleCacheBounded(t *testing.T) {
	s := New(smallConfig())
	defer s.Close()
	const n = 40
	do := func(seed uint64) {
		t.Helper()
		resp := s.Do(JobRequest{Workload: "fuzz", N: n, Seed: seed})
		if !resp.OK {
			t.Fatalf("seed %d: %+v", seed, resp.Error)
		}
		if want := fuzz.Generate(seed, n).Expected(); resp.Value != want {
			t.Fatalf("seed %d: value %v, want %d", seed, resp.Value, want)
		}
	}
	for seed := uint64(1); seed <= 10*oracleCacheCap; seed++ {
		do(seed)
	}
	do(1) // dropped long ago: recomputed, not trusted blindly
	s.oracles.mu.Lock()
	cached := len(s.oracles.m)
	s.oracles.mu.Unlock()
	if cached == 0 || cached > oracleCacheCap {
		t.Fatalf("oracle cache holds %d entries, bound is %d", cached, oracleCacheCap)
	}

	b, err := buildJob(JobRequest{Workload: "fuzz", N: n, Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ie *integrityError
	if _, err := s.oracles.check(b.inst, int64(-1)); !errors.As(err, &ie) {
		t.Fatalf("wrong value passed the cached oracle: err = %v", err)
	}
}

// FuzzJobRequest: no JSON body makes buildJob panic, every rejection is
// a classified admission error, and everything admitted is inside the
// service's caps, with a fault plan only of clauses its backend fires.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"nope"}`,
		`{"workload":"sumeuler","n":20001}`,
		`{"workload":"matmul","n":13}`,
		`{"workload":"fuzz","backend":"eden"}`,
		`{"workload":"sumeuler","backend":"gum"}`,
		`{"workload":"sumeuler","faults":"panic-spark"}`,
		`{"workload":"mandel","width":1024,"height":1024}`,
		`{"workload":"sumeuler","n":800,"chunks":8}`,
		`{"workload":"matmul","n":16,"backend":"eden","seed":18446744073709551615}`,
		`{"workload":"apsp","n":16,"backend":"eden"}`,
		`{"workload":"mandel","width":32,"height":24,"backend":"eden"}`,
		`{"workload":"sumeuler","n":-5,"chunks":-1,"deadline_ms":-1}`,
		`{"workload":"mandel","width":8589934592,"height":2147483648}`,
		`{"workload":"sumeuler","backend":"eden","faults":"seed=1,panic-spark=0"}`,
		`{"workload":"sumeuler","faults":"panic-proc=0"}`,
		`{"workload":"sumeuler","faults":"kill-rank=0:1ms"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		b, err := buildJob(req, 3)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) && !errors.Is(err, ErrUnknownWorkload) {
				t.Fatalf("buildJob(%s): unclassified rejection %v", body, err)
			}
			return
		}
		a := b.inst.Args()
		n := a.Val("n")
		within := map[string]bool{
			"sumeuler": n <= maxSumEulerN && a.Val("chunks") <= 512,
			"matmul":   n <= maxMatMulN && n%4 == 0,
			"apsp":     n <= maxAPSPNodes,
			"fuzz":     n <= maxFuzzNodes,
			"mandel":   n*a.Val("height") <= maxMandelArea,
		}
		if !within[req.Workload] {
			t.Fatalf("buildJob(%s) admitted %s, outside the service's caps", body, b.inst.Spec())
		}
		if (b.backend == "eden") != (b.eden != nil) || (b.backend == "gph") != (b.gph != nil) {
			t.Fatalf("buildJob(%s): backend %q but gph=%v eden=%v", body, b.backend, b.gph != nil, b.eden != nil)
		}
		if b.injector != nil {
			p := b.injector.Plan()
			unfired := len(p.KillRank)+len(p.SeverRank)+len(p.WedgeRank) > 0 || p.RankEvery
			if b.backend == "gph" {
				unfired = unfired || len(p.PanicProcs)+len(p.Edges) > 0
			} else {
				unfired = unfired || len(p.PanicSparks) > 0
			}
			if unfired {
				t.Fatalf("buildJob(%s) admitted the plan %q, which the %s backend never fires in full", body, p, b.backend)
			}
		}
	})
}
