package native

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/workloads/apsp"
)

// What a resident pool may keep between jobs: nothing of a finished
// job. Both tests serve the sequence that exposed the leak — a GpH APSP
// job, whose 96 final-row sparks reach the whole thunk lattice and go
// through the injection queue, then three empty jobs — and neither
// asserts a time.

func serve(t *testing.T, p *Pool, main exec.Program) graph.Value {
	t.Helper()
	h, err := p.Submit(JobConfig{Deadline: 30 * time.Second}, main)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

func serveAPSPThenEmpty(t *testing.T, p *Pool, g apsp.Graph) {
	t.Helper()
	if got := serve(t, p, apsp.Program(g, 0)).(apsp.Graph); len(got) != len(g) {
		t.Fatalf("apsp job returned %d rows, want %d", len(got), len(g))
	}
	for i := 0; i < 3; i++ {
		serve(t, p, func(exec.Ctx) graph.Value { return nil })
	}
}

// liveHeap is HeapAlloc after two forced collections (the second frees
// what the first one's finalizers and sweep released).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestPoolInjectQueueRetainsNothing is the white-box half: every slot
// of the injection queue's backing array, beyond len as well as before
// it, is zero once the jobs are done.
func TestPoolInjectQueueRetainsNothing(t *testing.T) {
	p := NewPool(NewConfig(2))
	defer p.Close()
	serveAPSPThenEmpty(t, p, apsp.RandomGraph(96, 7, 100, 50))

	r := p.rt
	r.injectMu.Lock()
	defer r.injectMu.Unlock()
	if n := len(r.inject) - r.injectHead; n != 0 {
		t.Fatalf("%d sparks still queued after every job retired", n)
	}
	for i, e := range r.inject[:cap(r.inject)] {
		if e != (injEntry{}) {
			t.Fatalf("slot %d of %d (len %d) still holds a spark of a finished job", i, cap(r.inject), len(r.inject))
		}
	}
}

// TestPoolHeapFlatAcrossJobs is the black-box half: the live heap after
// each round stays within half a megabyte of where it started. One
// leaked n = 96 lattice is about 0.7 MB: 9 216 nodes of 72 B, each its
// thunk built in place in the job's one slab, plus 2 × 96 rows — eager
// nodes update their rows in place, so a lattice holds 2n rows, not n².
func TestPoolHeapFlatAcrossJobs(t *testing.T) {
	p := NewPool(NewConfig(2))
	defer p.Close()
	g := apsp.RandomGraph(96, 7, 100, 50)
	base := liveHeap()
	for round := 0; round < 50; round++ {
		serveAPSPThenEmpty(t, p, g)
		if over := liveHeap() - base; over > 512<<10 {
			t.Fatalf("round %d: live heap is %d KB above its starting point", round, over>>10)
		}
	}
}

// TestPoolArenaChunksCollectedAcrossJobs: a job whose sparks allocate
// thunks fills chunks of the workers' arenas, which a pool never
// resets. Those chunks — 1.6 MB a job here with the values they hold —
// must become garbage with the job. main blocks until the last spark
// has run, so every spark runs on a worker and allocates from an arena.
func TestPoolArenaChunksCollectedAcrossJobs(t *testing.T) {
	p := NewPool(NewConfig(2))
	defer p.Close()
	const sparks, thunksPerSpark = 8, 200
	job := func(ctx exec.Ctx) graph.Value {
		var left atomic.Int64
		left.Store(sparks)
		done := graph.NewPlaceholder()
		for s := 0; s < sparks; s++ {
			ctx.Par(exec.NewThunk(ctx, func(c exec.Ctx) graph.Value {
				var sum int64
				for i := 0; i < thunksPerSpark; i++ {
					th := exec.NewThunk(c, func(exec.Ctx) graph.Value { return make([]byte, 1024) })
					sum += int64(len(c.Force(th).([]byte)))
				}
				if left.Add(-1) == 0 {
					done.Resolve(sum)
				}
				return sum
			}))
		}
		return ctx.Force(done)
	}
	base := liveHeap()
	for n := 1; n <= 400; n++ {
		if got := serve(t, p, job); got != int64(thunksPerSpark*1024) {
			t.Fatalf("job %d = %v", n, got)
		}
		if n%50 == 0 {
			if over := liveHeap() - base; over > 16<<20 {
				t.Fatalf("after %d jobs the live heap is %d MB above its starting point", n, over>>20)
			}
		}
	}
	// The counters still count what was allocated, not what is held.
	var chunks, thunks int64
	for _, w := range p.rt.workers {
		c, th := w.arena.Stats()
		chunks, thunks = chunks+c, thunks+th
	}
	if thunks != 400*sparks*thunksPerSpark || chunks < thunks/graph.DefaultArenaChunk {
		t.Fatalf("arena stats = %d chunks, %d thunks after %d arena allocations", chunks, thunks, 400*sparks*thunksPerSpark)
	}
}
