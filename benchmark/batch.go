package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"parhask/internal/cluster"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/trace"
)

// phase is which of a batch workload's three interleaved job kinds a job is.
type phase int

const (
	phRef  phase = iota // plain sequential Go, no runtime
	phOne               // the runtime at one worker / one PE
	phFull              // the runtime at P units
)

var phaseNames = [...]string{"ref", "one", "full"}

// jobOut is the public result struct of the layer a job ran on (at most
// one is set); the per-layer counters are read from it.
type jobOut struct {
	native  *native.Result
	eden    *nativeeden.Result
	cluster *cluster.Result
	// runSpan is the span around the call into the layer; timeline is the
	// per-agent timeline that call returned (traced jobs only), whose
	// agents belong to tlLayer.
	runSpan  int
	timeline *trace.Log
	tlLayer  string
}

// batchWorkload describes a workload whose jobs run one at a time.
type batchWorkload struct {
	name string
	// layer names the runtime under test: its one/ref ratio is reported
	// as <layer>.overhead_x and one/full as <layer>.speedup_x ("cluster"
	// reports full/ref instead: its one-unit run has no transport).
	layer string
	// cycle is the interleaving: slow drift of the shared host then hits
	// the reference, the one-unit and the P-unit jobs alike.
	cycle []phase
	// setup generates the inputs, computes the oracle, does the warm-up
	// jobs and returns the workload's job function.
	setup func(rc *runCtx, seed uint64) (jobFn, error)
}

// setupSeed gives each set-up repetition inputs of its own, so that no
// process-wide cache makes a repetition cheaper than the first; the last
// repetition, whose instance is the one timed, uses the run's seed.
func setupSeed(seed uint64, rep, reps int) uint64 {
	if rep == reps-1 {
		return seed
	}
	return seed + uint64(rep+1)*1_000_003
}

// layerAcc sums the public counters of the full-phase jobs.
type layerAcc struct {
	nat         native.Stats
	natJobs     int
	natAgentNS  float64 // Σ wall × workers
	arenaThunks int64
	edenJobs    int
	edenMsgs    int64
	edenBytes   int64
	clReconn    int
	clDropped   int64
	clRestarts  int
	// stateNS[layer][state] and agentNS[layer] come from the timelines
	// of the traced jobs only; tlMu lets serve_mix's clients add theirs.
	tlMu                                           sync.Mutex
	stateNS                                        map[string]*[trace.NumStates]float64
	agentNS                                        map[string]float64
	gcJobs                                         int
	gc                                             gcCounters
	workerGCCycles, workerGCPauseNS, workerGCAlloc int64 // cluster workers' own collectors
}

func newLayerAcc() *layerAcc {
	return &layerAcc{stateNS: map[string]*[trace.NumStates]float64{}, agentNS: map[string]float64{}}
}

func (a *layerAcc) addTimeline(layer string, tl *trace.Log) {
	if tl == nil {
		return
	}
	a.tlMu.Lock()
	defer a.tlMu.Unlock()
	st := a.stateNS[layer]
	if st == nil {
		st = new([trace.NumStates]float64)
		a.stateNS[layer] = st
	}
	for _, ag := range tl.Agents() {
		for s := trace.State(0); int(s) < trace.NumStates; s++ {
			st[s] += float64(ag.TimeIn(s))
		}
		a.agentNS[layer] += float64(tl.End())
	}
}

func (a *layerAcc) addJob(out jobOut) {
	a.addTimeline(out.tlLayer, out.timeline)
	switch {
	case out.native != nil:
		r := out.native
		a.natJobs++
		a.nat.Add(r.Stats)
		a.natAgentNS += float64(r.WallNS) * float64(r.Workers)
		a.arenaThunks += r.GC.ArenaThunks
	case out.eden != nil:
		r := out.eden
		a.edenJobs++
		a.edenMsgs += r.Stats.Messages
		a.edenBytes += r.Stats.BytesSent
	case out.cluster != nil:
		r := out.cluster
		a.edenJobs++
		a.edenMsgs += r.Total.Messages
		a.edenBytes += r.Total.BytesSent
		a.clReconn += r.Reconnects
		a.clRestarts += r.Restarts
		for _, d := range r.DroppedFrames {
			a.clDropped += d
		}
		a.workerGCCycles += r.GC.Cycles
		a.workerGCPauseNS += r.GC.PauseNS
		a.workerGCAlloc += r.GC.BytesAlloc
	}
}

// export writes the job-derived per-layer values by metric name. A layer
// the workload bypasses reads 0: no sparks on an Eden run, no messages on
// a GpH one.
func (a *layerAcc) export(m map[string]float64) {
	nj := float64(a.natJobs)
	m["native.sparks_per_job"] = ratio(float64(a.nat.SparksCreated), nj)
	m["native.spark_convert_ratio"] = ratio(float64(a.nat.SparksConverted), float64(a.nat.SparksCreated))
	m["native.steals_per_job"] = ratio(float64(a.nat.Steals), nj)
	m["native.steal_success_ratio"] = ratio(float64(a.nat.Steals), float64(a.nat.StealAttempts))
	m["native.blocked_forces_per_job"] = ratio(float64(a.nat.BlockedForces), nj)
	m["native.backoff_share"] = ratio(float64(a.nat.BackoffNS), a.natAgentNS)
	m["native.parked_share"] = ratio(float64(a.nat.ParkedNS), a.natAgentNS)
	m["graph.arena_thunks_per_job"] = ratio(float64(a.arenaThunks), nj)

	ej := float64(a.edenJobs)
	m["nativeeden.msgs_per_job"] = ratio(float64(a.edenMsgs), ej)
	m["nativeeden.bytes_per_job"] = ratio(float64(a.edenBytes), ej)
	m["cluster.reconnects"] = float64(a.clReconn)
	m["cluster.dropped_frames"] = float64(a.clDropped)
	m["cluster.restarts"] = float64(a.clRestarts)

	// The native reducer's base state for a stealing worker is Runnable
	// and it never emits Comm; an Eden PE between brackets has nothing
	// to run, so its base state counts as idle.
	nat, natT := a.stateNS["native"], a.agentNS["native"]
	if nat == nil {
		nat = new([trace.NumStates]float64)
	}
	m["native.run_share"] = ratio(nat[trace.Run], natT)
	m["native.runnable_share"] = ratio(nat[trace.Runnable]+nat[trace.GC]+nat[trace.Comm], natT)
	m["native.blocked_share"] = ratio(nat[trace.Blocked], natT)
	m["native.idle_share"] = ratio(nat[trace.Idle], natT)
	ed, edT := a.stateNS["nativeeden"], a.agentNS["nativeeden"]
	if ed == nil {
		ed = new([trace.NumStates]float64)
	}
	m["nativeeden.run_share"] = ratio(ed[trace.Run], edT)
	m["nativeeden.comm_share"] = ratio(ed[trace.Comm], edT)
	m["nativeeden.blocked_share"] = ratio(ed[trace.Blocked], edT)
	m["nativeeden.idle_share"] = ratio(ed[trace.Idle]+ed[trace.Runnable]+ed[trace.GC], edT)

	gj := float64(a.gcJobs)
	m["gcscope.gc_cycles_per_job"] = ratio(float64(a.gc.cycles)+float64(a.workerGCCycles), gj)
	m["gcscope.gc_pause_ms_per_job"] = ratio((float64(a.gc.pauseNS)+float64(a.workerGCPauseNS))/1e6, gj)
	m["gcscope.alloc_mb_per_job"] = ratio((float64(a.gc.alloc)+float64(a.workerGCAlloc))/(1<<20), gj)
}

// runBatch sets the workload up (several times, for a median set-up
// time), then runs its cycle of jobs until the time is spent.
func runBatch(rc *runCtx, w *batchWorkload) (*runResult, error) {
	res := newRunResult()
	var job jobFn
	for rep := 0; rep < rc.sz.SetupReps; rep++ {
		t0 := time.Now()
		var err error
		if job, err = w.setup(rc, setupSeed(rc.seed, rep, rc.sz.SetupReps)); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}

	acc := newLayerAcc()
	var cycleMedians, cycleFull []float64
	start := time.Now()
	nFull := 0
	for i := 0; ; i++ {
		if i%len(w.cycle) == 0 && len(cycleFull) > 0 {
			cycleMedians = append(cycleMedians, median(cycleFull))
			cycleFull = cycleFull[:0]
		}
		// At least two cycles, so every phase has the two jobs the memo
		// guard compares; then stop at the first job boundary past the time.
		if i >= 2*len(w.cycle) && time.Since(start).Seconds() >= rc.seconds {
			break
		}
		ph := w.cycle[i%len(w.cycle)]
		// A traced run alternates traced and untraced full jobs: the
		// ratio of their medians is the tracing overhead, free of drift.
		traced := rc.traced && ph == phFull && nFull%2 == 0
		id := i + 1
		root := rc.spans.begin(0, id, "job:"+phaseNames[ph], "workloads")
		var gc0 gcCounters
		var cpu0 float64
		if ph == phFull {
			if rc.traced {
				gc0 = readGC()
			}
			cpu0 = cpuSeconds()
		}
		t0 := time.Now()
		out, err := job(ph, traced, rc.spans, root, id)
		dt := time.Since(t0).Seconds()
		rc.spans.end(root)
		rc.spans.timeline(out.runSpan, id, out.tlLayer, out.timeline)
		if ph != phRef {
			res.attempted++
		}
		if err != nil {
			if ph == phRef {
				return nil, fmt.Errorf("%s: reference job: %w", w.name, err)
			}
			res.failed++
			fmt.Fprintf(os.Stderr, "%s: %s job %d failed: %v\n", w.name, phaseNames[ph], id, err)
			continue
		}
		res.samples[phaseNames[ph]] = append(res.samples[phaseNames[ph]], dt)
		if ph == phFull {
			nFull++
			res.fullCPUS += cpuSeconds() - cpu0
			res.fullWallS += dt
			cycleFull = append(cycleFull, dt)
			if rc.traced {
				gc1 := readGC()
				acc.gcJobs++
				acc.gc.cycles += gc1.cycles - gc0.cycles
				acc.gc.pauseNS += gc1.pauseNS - gc0.pauseNS
				acc.gc.alloc += gc1.alloc - gc0.alloc
				key := "full_untraced"
				if traced {
					key = "full_traced"
				}
				res.samples[key] = append(res.samples[key], dt)
			}
			acc.addJob(out)
		}
	}
	res.retainedMB = retainedHeapMB()
	runtime.KeepAlive(job) // the inputs and the oracle count as retained

	if rc.sz.MemoGuard {
		flag, err := memoGuard(rc, w, res.samples)
		if err != nil {
			return nil, err
		}
		res.flags = append(res.flags, flag...)
	}
	if d := spread(cycleMedians); d > rc.spec.bound("job_s_p50") {
		res.flags = append(res.flags, noisyFlag(d, rc.spec.bound("job_s_p50")))
	}

	acc.export(res.layer)
	ref, one, full := median(res.samples["ref"]), median(res.samples["one"]), median(res.samples["full"])
	res.layer["workloads.ref_s_p50"] = ref
	if w.layer == "cluster" {
		res.layer["cluster.overhead_x"] = ratio(full, ref)
	} else {
		res.layer[w.layer+".overhead_x"] = ratio(one, ref)
		if runtime.NumCPU() > 1 {
			res.layer[w.layer+".speedup_x"] = ratio(one, full)
		} else {
			res.flags = append(res.flags, w.layer+".speedup_x unmeasurable: one CPU")
		}
	}
	return res, nil
}

// noisyFlag words the flag of a run whose interleaved rounds disagree by
// more than the bound: such a run is reported, not averaged away.
func noisyFlag(d, bound float64) string {
	return fmt.Sprintf("noisy: job_s_p50 round medians spread %.1f%% of their median (bound %.0f%%)", 100*d, 100*bound)
}

// memoGuard refuses to time a cache as compute. Two rules. A runtime at
// one unit cannot beat the plain-Go reference threefold: if the medians
// say so, lookups are being timed. And a second job of a kind more than
// 3x faster than the first means the first filled a cache — unless the
// first merely stalled, which a fresh instance on other inputs settles:
// if its first two jobs show the same drop the run fails, otherwise the
// stall is flagged and the run stands.
func memoGuard(rc *runCtx, w *batchWorkload, samples map[string][]float64) (flags []string, err error) {
	if ref, one := median(samples["ref"]), median(samples["one"]); one > 0 && one*3 < ref {
		return nil, fmt.Errorf("%s: one-unit jobs take %.4gs, the sequential reference %.4gs: over 3x faster than plain Go, a cache is answering; refusing to time it as compute",
			w.name, one, ref)
	}
	for ph, name := range phaseNames {
		s := samples[name]
		if len(s) < 2 || s[1]*3 >= s[0] {
			continue
		}
		fresh, err := w.setup(rc, rc.seed+0xC0FFEE)
		if err != nil {
			return nil, fmt.Errorf("%s: memo guard re-test: %w", w.name, err)
		}
		var t [2]float64
		for i := range t {
			t0 := time.Now()
			if _, err := fresh(phase(ph), false, nil, 0, 0); err != nil {
				return nil, fmt.Errorf("%s: memo guard re-test: %w", w.name, err)
			}
			t[i] = time.Since(t0).Seconds()
		}
		if t[1]*3 < t[0] {
			return nil, fmt.Errorf("%s: %s job 2 took %.4gs, job 1 %.4gs, and again %.4gs after %.4gs on fresh inputs: over 3x faster, a cache is answering; refusing to time it as compute",
				w.name, name, s[1], s[0], t[1], t[0])
		}
		flags = append(flags, fmt.Sprintf("%s job 1 took %.4gs, job 2 %.4gs; not reproduced on fresh inputs (%.4gs, %.4gs): a stall, not a cache",
			name, s[0], s[1], t[0], t[1]))
	}
	return flags, nil
}
