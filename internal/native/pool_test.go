package native

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"parhask/internal/exec"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/workloads/euler"
)

// TestPoolRunsMixedJobsConcurrently is the resident-pool core test:
// one pool, many concurrent mixed-size jobs, every value checked
// against the workload's own oracle, no restart between jobs.
func TestPoolRunsMixedJobsConcurrently(t *testing.T) {
	p := NewPool(NewConfig(4))
	defer p.Close()
	sizes := []int{80, 200, 500, 1000}
	const jobsPerSize = 8
	var wg sync.WaitGroup
	for _, n := range sizes {
		for k := 0; k < jobsPerSize; k++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				h, err := p.Submit(JobConfig{Deadline: 30 * time.Second},
					euler.Program(n, 8, 0, true))
				if err != nil {
					t.Errorf("submit n=%d: %v", n, err)
					return
				}
				res, err := h.Wait()
				if err != nil {
					t.Errorf("job n=%d: %v", n, err)
					return
				}
				if want := euler.SumTotientSieve(n); res.Value.(int64) != want {
					t.Errorf("job n=%d = %v, want %d", n, res.Value, want)
				}
				if res.WallNS <= 0 {
					t.Errorf("job n=%d: non-positive latency %d", n, res.WallNS)
				}
			}(n)
		}
	}
	wg.Wait()
	if got := p.JobsDone(); got != int64(len(sizes)*jobsPerSize) {
		t.Fatalf("JobsDone = %d, want %d", got, len(sizes)*jobsPerSize)
	}
	if got := p.JobsFailed(); got != 0 {
		t.Fatalf("JobsFailed = %d", got)
	}
	if p.Inflight() != 0 {
		t.Fatalf("Inflight = %d after all jobs waited", p.Inflight())
	}
}

// TestPoolJobFaultIsolation injects a spark panic into one job's
// private fault budget and runs clean jobs beside it: the faulted job
// must fail with the structured error, the neighbours and the pool
// must be untouched.
func TestPoolJobFaultIsolation(t *testing.T) {
	p := NewPool(NewConfig(4))
	defer p.Close()

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := p.Submit(JobConfig{Deadline: 30 * time.Second},
				euler.Program(300, 8, 0, true))
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = h.Wait()
		}(i)
	}

	plan, err := faults.Parse("seed=1,panic-spark=0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(plan)
	// The program parks its main thread long enough that workers are
	// guaranteed to convert its sparks, so the injected panic (on the
	// first conversion) deterministically fires worker-side.
	prog := func(ctx exec.Ctx) graph.Value {
		ts := make([]*graph.Thunk, 8)
		for i := range ts {
			i := i
			ts[i] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value {
				return int64(i)
			})
			ctx.Par(ts[i])
		}
		time.Sleep(100 * time.Millisecond)
		var sum int64
		for _, th := range ts {
			sum += ctx.Force(th).(int64)
		}
		return sum
	}
	h, err := p.Submit(JobConfig{Deadline: 30 * time.Second, Faults: inj}, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, jerr := h.Wait()
	wg.Wait()

	if jerr == nil {
		t.Fatal("faulted job completed without error")
	}
	var ip *faults.InjectedPanic
	var pe *graph.PoisonError
	if !errors.As(jerr, &ip) && !errors.As(jerr, &pe) {
		t.Fatalf("faulted job error is not structured: %v", jerr)
	}
	for i, e := range errs {
		if e != nil {
			t.Errorf("clean neighbour %d failed: %v", i, e)
		}
	}

	// The pool must still serve fresh jobs after absorbing the fault.
	h2, err := p.Submit(JobConfig{Deadline: 30 * time.Second},
		euler.Program(200, 4, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h2.Wait()
	if err != nil {
		t.Fatalf("post-fault job: %v", err)
	}
	if want := euler.SumTotientSieve(200); res.Value.(int64) != want {
		t.Fatalf("post-fault job = %v, want %d", res.Value, want)
	}
}

// TestPoolJobDeadline hangs one job on a placeholder nobody resolves:
// its deadline must convert the hang into a structured DeadlockError
// while a concurrent healthy job completes normally.
func TestPoolJobDeadline(t *testing.T) {
	p := NewPool(NewConfig(2))
	defer p.Close()

	hang, err := p.Submit(JobConfig{Deadline: 50 * time.Millisecond},
		func(ctx exec.Ctx) graph.Value {
			cell := graph.NewPlaceholder()
			return ctx.Force(cell) // never resolved
		})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := p.Submit(JobConfig{Deadline: 30 * time.Second},
		euler.Program(300, 8, 0, true))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ok.Wait(); err != nil {
		t.Fatalf("healthy job beside a hung one: %v", err)
	}
	_, herr := hang.Wait()
	var de *faults.DeadlockError
	if !errors.As(herr, &de) {
		t.Fatalf("hung job error = %v, want *faults.DeadlockError", herr)
	}
	if de.Reason != "deadline" {
		t.Fatalf("DeadlockError reason = %q", de.Reason)
	}
}

// TestPoolForkFailureScopedToJob panics inside a job's forked thread:
// only that job fails.
func TestPoolForkFailureScopedToJob(t *testing.T) {
	p := NewPool(NewConfig(2))
	defer p.Close()

	bad, err := p.Submit(JobConfig{Deadline: 5 * time.Second},
		func(ctx exec.Ctx) graph.Value {
			cell := graph.NewPlaceholder()
			exec.Fork(ctx, "bomb", func(c exec.Ctx) {
				panic("fork bomb")
			})
			return ctx.Force(cell)
		})
	if err != nil {
		t.Fatal(err)
	}
	good, err := p.Submit(JobConfig{Deadline: 30 * time.Second},
		euler.Program(200, 4, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Wait(); err != nil {
		t.Fatalf("healthy job: %v", err)
	}
	if _, err := bad.Wait(); err == nil {
		t.Fatal("job with panicking fork completed without error")
	}
}

// TestPoolCloseRejectsNewJobs: Close drains in-flight work, then
// Submit returns the sentinel rejections.
func TestPoolCloseRejectsNewJobs(t *testing.T) {
	p := NewPool(NewConfig(2))
	h, err := p.Submit(JobConfig{Deadline: 30 * time.Second},
		euler.Program(200, 4, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := h.Wait(); err != nil {
		t.Fatalf("in-flight job across Close: %v", err)
	}
	_, err = p.Submit(JobConfig{}, euler.Program(50, 2, 0, true))
	if !errors.Is(err, ErrPoolClosed) && !errors.Is(err, ErrPoolDraining) {
		t.Fatalf("Submit after Close = %v, want pool-closed rejection", err)
	}
}

// TestPoolJobEventlogScope gives one job a private event ring and
// checks it recorded the job's own run bracket.
func TestPoolJobEventlogScope(t *testing.T) {
	p := NewPool(NewConfig(2))
	defer p.Close()
	h, err := p.Submit(JobConfig{Deadline: 30 * time.Second, EventLog: true},
		euler.Program(200, 4, 0, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == nil {
		t.Fatal("job requested an eventlog but Result.Events is nil")
	}
	if res.Events.Buf(0).Len() == 0 {
		t.Fatal("job eventlog is empty")
	}
}

// monotoneFields extracts the cumulative counters (everything except
// the SparksLeftover gauge).
func monotoneFields(s Stats) []int64 {
	return []int64{s.SparksCreated, s.SparksDud, s.SparksConverted,
		s.SparksFizzled, s.Steals, s.StealAttempts, s.DupEntries,
		s.DupResults, s.BlockedForces, s.Forks}
}

// TestResidentSamplerMonotonic is the satellite coverage for
// Config.Sampler under concurrent submit/drain: a snapshot loop races
// against job churn (including retirement, which moves counters from
// the live table to the retired fold) and asserts that every
// cumulative counter is non-decreasing across consecutive snapshots.
// Run under -race this also proves the snapshot path is race-clean.
func TestResidentSamplerMonotonic(t *testing.T) {
	var snap func() Stats
	cfg := NewConfig(4)
	cfg.Sampler = func(s func() Stats) { snap = s }
	p := NewPool(cfg)
	defer p.Close()
	if snap == nil {
		t.Fatal("pool did not hand the sampler its snapshot function")
	}

	stop := make(chan struct{})
	violations := make(chan string, 1)
	go func() {
		prev := monotoneFields(snap())
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := monotoneFields(snap())
			for i := range cur {
				if cur[i] < prev[i] {
					select {
					case violations <- fmt.Sprintf("field %d decreased: %d -> %d", i, prev[i], cur[i]):
					default:
					}
					return
				}
			}
			prev = cur
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 15; k++ {
				h, err := p.Submit(JobConfig{Deadline: 30 * time.Second},
					euler.Program(150, 6, 0, true))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if _, err := h.Wait(); err != nil {
					t.Errorf("job: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	select {
	case v := <-violations:
		t.Fatalf("sampler monotonicity violated: %s", v)
	default:
	}

	// The final snapshot must account for all submitted jobs' sparks:
	// 4 goroutines x 15 jobs x 6 chunks created by job mains.
	final := snap()
	if want := int64(4 * 15 * 6); final.SparksCreated < want {
		t.Fatalf("final SparksCreated = %d, want >= %d", final.SparksCreated, want)
	}
}

// TestPoolJoblessForkPanicKeepsWorkers: a fork started by untagged work
// belongs to no job, so its panic only poisons its claims. Job A's main
// sparks s and waits on a Go channel, so a worker converts s; s sparks
// inner without forcing it, leaving inner untagged on a worker deque;
// inner forks a thread that closes the channel and dies holding a
// claim. The pool must keep every worker: job B's main waits for a
// spark only a worker can run.
func TestPoolJoblessForkPanicKeepsWorkers(t *testing.T) {
	p := NewPool(NewConfig(2))
	defer p.Close()
	ch := make(chan struct{})
	bomb := exec.Thunk(func(exec.Ctx) graph.Value { panic("fork boom") })
	inner := exec.Thunk(func(c exec.Ctx) graph.Value {
		exec.Fork(c, "bomber", func(fc exec.Ctx) {
			defer close(ch)
			fc.Force(bomb)
		})
		return int64(0)
	})
	a, err := p.Submit(JobConfig{}, func(ctx exec.Ctx) graph.Value {
		ctx.Par(exec.Thunk(func(c exec.Ctx) graph.Value {
			c.Par(inner)
			return int64(0)
		}))
		<-ch
		return int64(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitJob(t, a, nil)
	// The fork's recovery poisons bomb before it does anything else with
	// the failure, so from here on the failure has been handled.
	for hang := time.Now().Add(30 * time.Second); bomb.State() != graph.Poisoned; time.Sleep(time.Millisecond) {
		if time.Now().After(hang) {
			t.Fatal("the forked thread's claim was never poisoned")
		}
	}

	ch2 := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(ch2) }) }
	b, err := p.Submit(JobConfig{}, func(ctx exec.Ctx) graph.Value {
		ctx.Par(exec.Thunk(func(exec.Ctx) graph.Value {
			release()
			return int64(0)
		}))
		<-ch2
		return int64(2)
	})
	if err != nil {
		t.Fatalf("Submit after a job-less fork's panic: %v", err)
	}
	if res, err := awaitJob(t, b, release); err != nil || res.Value != int64(2) {
		t.Fatalf("job B = %v, %v; want 2", res.Value, err)
	}
	if got := serve(t, p, euler.Program(200, 4, 0, true)); got != euler.SumTotientSieve(200) {
		t.Fatalf("later job = %v, want %d", got, euler.SumTotientSieve(200))
	}
}

// awaitJob waits for h like awaitRun waits for a Run: a job that never
// completes fails the test after 30 s instead of hanging it. unstick, if
// non-nil, is called first so the hung job can end and Close return.
func awaitJob(t *testing.T, h *JobHandle, unstick func()) (*JobResult, error) {
	t.Helper()
	select {
	case <-h.Done():
		return h.Wait()
	case <-time.After(30 * time.Second):
		if unstick != nil {
			unstick()
		}
		t.Fatal("job hung: no worker converted its spark")
		return nil, nil
	}
}
