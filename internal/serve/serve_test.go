package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// smallConfig keeps tests fast and contention visible.
func smallConfig() Config {
	return Config{Workers: 4, PEs: 2, Lanes: 2, QueueCap: 64,
		MaxInflight: 8, DefaultDeadline: 30 * time.Second}
}

// requestMix is the nine request shapes: every served workload, on both
// backends where both exist.
func requestMix() []JobRequest {
	return []JobRequest{
		{Workload: "sumeuler", N: 500, Chunks: 8},
		{Workload: "sumeuler", N: 300, Backend: "eden"},
		{Workload: "matmul", N: 16},
		{Workload: "matmul", N: 16, Backend: "eden"},
		{Workload: "apsp", N: 16},
		{Workload: "apsp", N: 16, Backend: "eden"},
		{Workload: "fuzz", N: 150, Seed: 9},
		{Workload: "mandel", Width: 32, Height: 24},
		{Workload: "mandel", Width: 32, Height: 24, Backend: "eden"},
	}
}

// TestServeMixedWorkloadsConcurrently is the acceptance-shaped core
// test: one resident server sustains over 100 concurrent jobs across
// the whole workload set on both backends, without restart, every
// result oracle-checked (the server's own check gate — OK implies the
// value matched the sequential oracle).
func TestServeMixedWorkloadsConcurrently(t *testing.T) {
	s := New(smallConfig())
	defer s.Close()

	mix := requestMix()
	const rounds = 13 // 9 * 13 = 117 concurrent jobs
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	for r := 0; r < rounds; r++ {
		for i, req := range mix {
			wg.Add(1)
			req := req
			req.Tenant = []string{"alice", "bob", "carol"}[i%3]
			go func() {
				defer wg.Done()
				resp := s.Do(req)
				if !resp.OK {
					mu.Lock()
					failures = append(failures, resp.Workload+"/"+resp.Backend+": "+resp.Error.Message)
					mu.Unlock()
					return
				}
				if resp.Value == nil || resp.TotalNS <= 0 {
					mu.Lock()
					failures = append(failures, resp.Workload+": missing value or latency")
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("%d/%d jobs failed; first: %s", len(failures), rounds*len(mix), failures[0])
	}
	st := s.Statusz()
	if want := int64(rounds * len(mix)); st.JobsDone != want {
		t.Fatalf("JobsDone = %d, want %d", st.JobsDone, want)
	}
	if st.JobsFailed != 0 {
		t.Fatalf("JobsFailed = %d", st.JobsFailed)
	}
	if st.Pool.SparksCreated == 0 {
		t.Fatal("pool recorded no sparks across the whole mix")
	}
}

// TestServeAdmissionRejections: validation failures classify before
// any queueing, with the right codes.
func TestServeAdmissionRejections(t *testing.T) {
	s := New(smallConfig())
	defer s.Close()
	cases := []struct {
		req  JobRequest
		code ErrorCode
	}{
		{JobRequest{Workload: "nope"}, CodeUnknownWorkload},
		{JobRequest{Workload: "sumeuler", N: maxSumEulerN + 1}, CodeBadRequest},
		{JobRequest{Workload: "matmul", N: 13}, CodeBadRequest},
		{JobRequest{Workload: "fuzz", Backend: "eden"}, CodeBadRequest},
		{JobRequest{Workload: "sumeuler", Backend: "gum"}, CodeBadRequest},
		{JobRequest{Workload: "sumeuler", Faults: "panic-spark"}, CodeBadRequest},
		{JobRequest{Workload: "mandel", Width: 1024, Height: 1024}, CodeBadRequest},
	}
	for _, tc := range cases {
		resp := s.Do(tc.req)
		if resp.OK || resp.Error == nil || resp.Error.Code != tc.code {
			t.Errorf("Do(%+v) = %+v, want code %q", tc.req, resp.Error, tc.code)
		}
	}
}

// TestServeQueueFullBackpressure: a tenant beyond its queue bound is
// rejected with queue_full while admitted jobs still complete.
func TestServeQueueFullBackpressure(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxInflight = 1
	cfg.QueueCap = 2
	s := New(cfg)
	defer s.Close()

	const clients = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[ErrorCode]int{}
	okCount := 0
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := s.Do(JobRequest{Workload: "sumeuler", N: 4000, Chunks: 8})
			mu.Lock()
			defer mu.Unlock()
			if resp.OK {
				okCount++
			} else {
				counts[resp.Error.Code]++
			}
		}()
	}
	wg.Wait()
	if okCount == 0 {
		t.Fatal("no job completed under backpressure")
	}
	if counts[CodeQueueFull] == 0 {
		t.Fatalf("no queue_full rejection across %d clients at cap 2 (ok=%d, rejects=%v)",
			clients, okCount, counts)
	}
	for code := range counts {
		if code != CodeQueueFull {
			t.Fatalf("unexpected rejection code %q (%v)", code, counts)
		}
	}
	if s.Statusz().Rejected == 0 {
		t.Fatal("statusz did not count the rejections")
	}
}

// TestServeTenantFairness: one tenant floods the queue, a second
// submits a pair of jobs afterwards; the round-robin dispatcher must
// not starve the second tenant behind the flood.
func TestServeTenantFairness(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxInflight = 1 // serialise execution so completion order == dispatch order
	s := New(cfg)
	defer s.Close()

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	submit := func(tenant string) {
		defer wg.Done()
		resp := s.Do(JobRequest{Workload: "sumeuler", N: 2500, Chunks: 8, Tenant: tenant})
		if !resp.OK {
			t.Errorf("%s job failed: %+v", tenant, resp.Error)
			return
		}
		mu.Lock()
		order = append(order, tenant)
		mu.Unlock()
	}

	const floodJobs = 10
	for i := 0; i < floodJobs; i++ {
		wg.Add(1)
		go submit("flood")
	}
	// Let the flood queue up: every flood job but the one running and
	// the one the dispatcher holds for the next slot, unless a flood job
	// has already finished. A fixed sleep is not enough: on a fast
	// kernel the flood drains within it.
	for st := s.Statusz(); st.QueueDepths["flood"] < floodJobs-2 && st.JobsDone == 0; st = s.Statusz() {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go submit("patient")
	}
	wg.Wait()

	// Round-robin alternates flood/patient while both have work, so the
	// patient tenant's two jobs must complete well before the flood's
	// tail — at the latest with four flood jobs still outstanding.
	lastPatient := -1
	for i, tenant := range order {
		if tenant == "patient" {
			lastPatient = i
		}
	}
	if lastPatient < 0 {
		t.Fatal("patient tenant never completed")
	}
	if lastPatient > len(order)-4 {
		t.Fatalf("patient tenant starved: finished at position %d of %d (%v)",
			lastPatient+1, len(order), order)
	}
}

// TestServeFaultScopedToJob: a request carrying its own fault plan
// fails with a structured code; concurrent clean jobs and the server
// survive untouched. First one plan on one shape among clean
// neighbours, then four plans over all nine request shapes with clean
// traffic alongside — the only place every plan meets every shape.
func TestServeFaultScopedToJob(t *testing.T) {
	s := New(smallConfig())
	defer s.Close()

	// Nothing is injected yet: a poisoned claim here would be the
	// runtime's own doing.
	mix := requestMix()
	for _, req := range mix {
		if resp := s.Do(req); !resp.OK {
			t.Fatalf("clean %s/%s failed: %+v", req.Workload, req.Backend, resp.Error)
		}
	}
	if n := s.Metrics().Counters()["native_pool_poisoned_claims_total"]; n != 0 {
		t.Fatalf("%v poisoned claims on a fault-free server", n)
	}

	var wg sync.WaitGroup
	clean := make([]*JobResponse, 6)
	for i := range clean {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clean[i] = s.Do(JobRequest{Workload: "sumeuler", N: 400, Chunks: 8})
		}(i)
	}
	faulted := s.Do(JobRequest{Workload: "sumeuler", N: 400, Backend: "eden",
		Faults: "seed=7,panic-proc=0", DeadlineMS: 5000})
	wg.Wait()

	if faulted.OK {
		t.Fatal("faulted job completed OK")
	}
	switch faulted.Error.Code {
	case CodeInjectedPanic, CodeDeadlock, CodePoisoned:
	default:
		t.Fatalf("faulted job code = %q (%s)", faulted.Error.Code, faulted.Error.Message)
	}
	for i, resp := range clean {
		if !resp.OK {
			t.Errorf("clean neighbour %d failed: %+v", i, resp.Error)
		}
	}

	// Faults under traffic: every client sends three requests, one of
	// them faulted. Client c's faulted shape is a bijection of c mod 9
	// and its plan is c mod 4, so 36 clients are exactly plans × shapes.
	// Stalls are left out of the plans: a stalled PE sleeps
	// uninterruptibly, so it would hold its lane past the deadline.
	plans := []string{
		"seed=3,panic-spark=0",
		"seed=5,panic-proc=0",
		"seed=9,panic-proc=1",
		"seed=11,delay=5ms:0.5",
	}
	clients := len(plans) * len(mix)
	var okCount atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				req := mix[(c+k)%len(mix)]
				req.Tenant = []string{"alice", "bob", "carol", "dave"}[c%4]
				isFaulted := k == c%3
				if isFaulted {
					req.Faults = plans[c%len(plans)]
					req.DeadlineMS = 10_000
				}
				resp := s.Do(req)
				if resp.OK {
					okCount.Add(1)
					continue
				}
				switch resp.Error.Code {
				case CodeInternal:
					t.Errorf("unstructured failure for %s/%s (faults %q): %s",
						req.Workload, req.Backend, req.Faults, resp.Error.Message)
				case CodeInjectedPanic, CodePoisoned, CodeDeadlock:
					if !isFaulted {
						t.Errorf("clean %s/%s request failed with %s: %s",
							req.Workload, req.Backend, resp.Error.Code, resp.Error.Message)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if okCount.Load() == 0 {
		t.Error("no request completed while faults were injected")
	}

	// The server keeps serving after absorbing the faults.
	for _, backend := range []string{"gph", "eden"} {
		if resp := s.Do(JobRequest{Workload: "sumeuler", N: 300, Backend: backend}); !resp.OK {
			t.Fatalf("post-fault %s job failed: %+v", backend, resp.Error)
		}
	}
}

// TestServeGracefulDrain: Close completes every admitted job, then
// rejects new work with the draining code.
func TestServeGracefulDrain(t *testing.T) {
	s := New(smallConfig())

	const jobs = 8
	responses := make([]*JobResponse, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = s.Do(JobRequest{Workload: "sumeuler", N: 3000, Chunks: 8})
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the batch be admitted
	s.Close()
	wg.Wait()

	okCount := 0
	for i, resp := range responses {
		if resp == nil {
			t.Fatalf("job %d got no response across drain", i)
		}
		switch {
		case resp.OK:
			okCount++
		case resp.Error.Code == CodeDraining: // admitted after drain began
		default:
			t.Fatalf("job %d failed with %q across drain: %s", i, resp.Error.Code, resp.Error.Message)
		}
	}
	if okCount == 0 {
		t.Fatal("no admitted job completed across the drain")
	}
	resp := s.Do(JobRequest{Workload: "sumeuler", N: 100})
	if resp.OK || resp.Error.Code != CodeDraining {
		t.Fatalf("Do after Close = %+v, want draining", resp.Error)
	}
	if !s.Statusz().Draining {
		t.Fatal("statusz does not report draining")
	}
	s.Close() // idempotent
}

// TestServeStatuszSnapshots: pool counters in consecutive snapshots
// are monotone while jobs churn (the resident sampler contract,
// observed through the service layer).
func TestServeStatuszSnapshots(t *testing.T) {
	s := New(smallConfig())
	defer s.Close()

	stop := make(chan struct{})
	var monoErr error
	var monoWG sync.WaitGroup
	monoWG.Add(1)
	go func() {
		defer monoWG.Done()
		prev := s.Statusz()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := s.Statusz()
			if cur.Pool.SparksCreated < prev.Pool.SparksCreated ||
				cur.JobsDone < prev.JobsDone ||
				cur.Pool.Forks < prev.Pool.Forks {
				monoErr = &integrityError{workload: "statusz-monotonicity"}
				return
			}
			prev = cur
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				if resp := s.Do(JobRequest{Workload: "sumeuler", N: 300, Chunks: 6}); !resp.OK {
					t.Errorf("job failed: %+v", resp.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	monoWG.Wait()
	if monoErr != nil {
		t.Fatal("statusz pool counters decreased across snapshots")
	}
	st := s.Statusz()
	if st.JobsDone != 32 || st.Queued != 0 || st.Inflight != 0 {
		t.Fatalf("final statusz: done=%d queued=%d inflight=%d", st.JobsDone, st.Queued, st.Inflight)
	}
}
