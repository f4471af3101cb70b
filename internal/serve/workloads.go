package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"parhask/internal/cost"
	"parhask/internal/exec"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/workloads"
)

// JobRequest is one job submission: which workload, on which backend,
// at what size, under whose tenancy. Zero-valued knobs take the
// workload's defaults; every knob is capped so a single request cannot
// monopolise the resident runtimes.
type JobRequest struct {
	// Workload names an admitted entry of the workload table: sumeuler |
	// matmul | apsp | fuzz | mandel.
	Workload string `json:"workload"`
	// Backend picks the runtime: "gph" (default; the work-stealing
	// pool) or "eden" (a resident Eden lane).
	Backend string `json:"backend,omitempty"`
	// Tenant scopes admission: each tenant has its own bounded FIFO
	// queue and an equal share of the dispatcher's round-robin. Empty
	// means the shared "anon" tenant.
	Tenant string `json:"tenant,omitempty"`
	// N is the size knob (sumEuler bound, matrix dimension, APSP nodes,
	// fuzz DAG nodes).
	N int `json:"n,omitempty"`
	// Chunks is the GpH decomposition knob where one applies.
	Chunks int `json:"chunks,omitempty"`
	// Seed varies the randomised workloads (matmul, apsp, fuzz).
	Seed uint64 `json:"seed,omitempty"`
	// Width and Height frame a mandel rendering.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`
	// DeadlineMS bounds the job's wall-clock time in milliseconds
	// (0 = the server default, capped at the server maximum).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Faults is this job's private fault plan (internal/faults
	// grammar); injected failures are scoped to the job.
	Faults string `json:"faults,omitempty"`
	// Trace gives the job a private per-worker eventlog; the response's
	// TraceID fetches it from GET /api/v1/trace for timeline rendering.
	Trace bool `json:"trace,omitempty"`
}

// builtJob is a validated, runnable form of one request: the table
// instance, its program for the chosen backend, and the job's fault
// plan and deadline.
type builtJob struct {
	backend  string // "gph" | "eden"
	inst     *workloads.Instance
	gph      exec.Program
	eden     pe.Program
	injector *faults.Injector
	deadline time.Duration
}

// Parameter caps: a resident service must bound what one request can
// cost. The caps are generous for tests and benchmarks, tight enough
// that no single job can hold a backend for minutes.
const (
	maxSumEulerN  = 20000
	maxMatMulN    = 256
	maxAPSPNodes  = 128
	maxFuzzNodes  = 2000
	maxMandelArea = 256 * 256
)

// admitted is the service's admission table: for each workload it runs,
// the function that turns a request into the table entry's arguments or
// rejects it. The programs, inputs and oracles are the table's; the
// defaults for knobs left zero, the caps, the generator constants and
// the Eden shapes (pes is the lanes' PE count) are the service's own.
var admitted = map[string]func(r JobRequest, pes int) (workloads.Args, error){
	"sumeuler": func(r JobRequest, _ int) (workloads.Args, error) {
		n, err := knob(r, "n", r.N, 1000, 1, maxSumEulerN)
		chunks, cerr := knob(r, "chunks", r.Chunks, 16, 1, 512)
		return workloads.Args{}.With("n", n).With("chunks", chunks).With("pechunks", 2), errors.Join(err, cerr)
	},
	"matmul": func(r JobRequest, _ int) (workloads.Args, error) {
		n, err := knob(r, "n", r.N, 48, 4, maxMatMulN)
		if n%4 != 0 {
			err = badReq("matmul n=%d out of range (want multiple of 4 in [4,%d])", n, maxMatMulN)
		}
		// A quarter-size block grid on the pool, a 2×2 torus on a lane.
		return workloads.Args{}.With("n", n).With("block", n/4).With("q", 2).With("seed", seedOr(r, 1)), err
	},
	"apsp": func(r JobRequest, pes int) (workloads.Args, error) {
		n, err := knob(r, "n", r.N, 32, 2, maxAPSPNodes)
		ring := uint64(max(1, pes-1)) // PE 0 keeps the root
		return workloads.Args{}.With("n", n).With("ring", ring).With("seed", seedOr(r, 7)).With("maxw", 100).With("density", 50), err
	},
	"fuzz": func(r JobRequest, _ int) (workloads.Args, error) {
		n, err := knob(r, "n", r.N, 200, 1, maxFuzzNodes)
		return workloads.Args{}.With("n", n).With("seed", seedOr(r, 1)), err
	},
	"mandel": func(r JobRequest, _ int) (workloads.Args, error) {
		w, h := r.Width, r.Height
		if w == 0 && h == 0 {
			w, h = 64, 48
		}
		if w < 1 || h < 1 || w > maxMandelArea || h > maxMandelArea || w*h > maxMandelArea {
			return workloads.Args{}, badReq("mandel %dx%d out of range (area cap %d)", w, h, maxMandelArea)
		}
		return workloads.Args{}.With("n", uint64(w)).With("height", uint64(h)), nil
	},
}

// knob applies the service's default and range to one size knob.
func knob(r JobRequest, param string, v, def, lo, hi int) (uint64, error) {
	if v == 0 {
		v = def
	}
	if v < lo || v > hi {
		return 0, badReq("%s %s=%d out of range [%d,%d]", r.Workload, param, v, lo, hi)
	}
	return uint64(v), nil
}

func seedOr(r JobRequest, def uint64) uint64 {
	if r.Seed != 0 {
		return r.Seed
	}
	return def
}

func badReq(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// Workloads lists the admitted workload names (for diagnostics).
func Workloads() []string {
	names := make([]string, 0, len(admitted))
	for name := range admitted {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// buildJob validates a request against the service's admission table
// and builds its program from the workload table. pes is the Eden
// lanes' PE count (the eden-side topologies are sized from it). All
// validation failures wrap ErrBadRequest or ErrUnknownWorkload, so they
// classify before any queueing happens.
func buildJob(req JobRequest, pes int) (*builtJob, error) {
	b := &builtJob{backend: req.Backend}
	switch b.backend {
	case "":
		b.backend = "gph"
	case "gph", "eden":
	default:
		return nil, badReq("unknown backend %q (want gph or eden)", req.Backend)
	}
	if req.Faults != "" {
		plan, err := faults.Parse(req.Faults)
		if err != nil {
			return nil, fmt.Errorf("%w: faults: %v", ErrBadRequest, err)
		}
		b.injector = faults.NewInjector(plan)
	}
	if req.DeadlineMS < 0 {
		return nil, badReq("negative deadline")
	}
	b.deadline = time.Duration(req.DeadlineMS) * time.Millisecond

	admit, ok := admitted[req.Workload]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownWorkload, req.Workload, Workloads())
	}
	args, err := admit(req, pes)
	if err != nil {
		return nil, err
	}
	e, err := workloads.Lookup(req.Workload)
	if err != nil {
		return nil, err // an admitted name missing from the table is our bug, not the client's
	}
	if b.inst, err = e.New(args); err != nil {
		return nil, badReq("%v", err)
	}
	if b.backend == "eden" {
		b.eden, err = b.inst.Eden(cost.Model{})
	} else {
		b.gph, err = b.inst.GpH()
	}
	if err != nil {
		return nil, badReq("%v", err)
	}
	return b, nil
}

// oracleCacheCap bounds the oracle cache. A reference result can be
// half a megabyte (a 256×256 matrix), and the key space is whatever
// clients send, so the cache must not grow with it.
const oracleCacheCap = 32

// oracleCache memoises sequential-oracle results by instance, so
// sustained load over a working set of instances pays each oracle once
// instead of per request. A cache that fills up starts over: a working
// set within the bound never notices, a stream of distinct instances
// was never going to hit.
type oracleCache struct {
	mu sync.Mutex
	m  map[workloads.Key]graph.Value
}

// check verifies a job's result against its instance's reference
// result, computing that at most once while it stays cached.
func (c *oracleCache) check(inst *workloads.Instance, got graph.Value) (any, error) {
	key := inst.Key()
	c.mu.Lock()
	want, ok := c.m[key]
	if !ok {
		if c.m == nil || len(c.m) >= oracleCacheCap {
			c.m = make(map[workloads.Key]graph.Value, oracleCacheCap)
		}
		want = inst.Reference()
		c.m[key] = want
	}
	c.mu.Unlock()
	if summary, err := inst.Verify(got, want); err == nil {
		return summary, nil
	}
	return nil, &integrityError{workload: inst.Entry.Name}
}
