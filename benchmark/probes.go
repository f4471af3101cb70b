package main

import (
	"fmt"
	"runtime"
	"time"

	"parhask/internal/cluster"
	"parhask/internal/deque"
	"parhask/internal/eden"
	"parhask/internal/eden/wire"
	"parhask/internal/exec"
	"parhask/internal/experiments"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/metrics"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/pe"
	"parhask/internal/tune"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/matmul"
)

// The layer probes time each module from outside, through its exported
// functions, on two fixed payload shapes: a 96×96 matmul.Mat block (the
// large-message regime of eden_torus) and a 128-element []int32 row (the
// pivot row cluster_ring ships 4000 times a job). They run in every
// traced run, whatever the workload, so a per-layer table is complete
// from any one of them.

// probes carries the scale and collects values by metric name.
type probes struct {
	rc *runCtx
	m  map[string]float64
}

// n scales an iteration count, keeping at least lo.
func (p *probes) n(full, lo int) int { return max(lo, int(float64(full)*p.rc.sz.Probe)) }

// timeN runs f reps times and returns the median seconds of one call.
func timeN(reps int, f func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

func runProbes(rc *runCtx, m map[string]float64) error {
	p := &probes{rc: rc, m: m}
	for _, f := range []func() error{
		p.deque, p.graph, p.native, p.overheads, p.splitter,
		p.codec, p.edenSend, p.edenEmpty, p.cluster, p.serve, p.sim,
	} {
		if err := f(); err != nil {
			return err
		}
	}
	m["gcscope.peak_rss_mb"] = peakRSSMB()
	return nil
}

func (p *probes) deque() error {
	n := p.n(1_000_000, 1000)
	d := deque.New[int]()
	x := 1
	t0 := time.Now()
	for i := 0; i < n; i++ {
		d.PushBottom(&x)
		d.PopBottom()
	}
	p.m["deque.push_pop_ns"] = float64(time.Since(t0)) / float64(n)
	// One thief, owner quiet: the price of the CAS, not of contention.
	const batch = 1024
	var stolen int
	var spent time.Duration
	for stolen < n {
		for i := 0; i < batch; i++ {
			d.PushBottom(&x)
		}
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, ok := d.Steal(); ok {
				stolen++
			}
		}
		spent += time.Since(t0)
	}
	p.m["deque.steal_ns"] = float64(spent) / float64(stolen)
	return nil
}

func (p *probes) graph() error {
	n := p.n(2_000_000, 1000)
	body := func(exec.Ctx) graph.Value { return nil }
	a := graph.NewArena(0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		a.NewThunkAdapted(exec.Adapt, body)
	}
	p.m["graph.arena_thunk_ns"] = float64(time.Since(t0)) / float64(n)
	if _, thunks := a.Stats(); thunks != int64(n) {
		return fmt.Errorf("graph probe: arena handed out %d thunks, want %d", thunks, n)
	}
	return nil
}

// sparkProgram sparks n one-line thunks and forces them all.
func sparkProgram(n int) exec.Program {
	return func(ctx exec.Ctx) graph.Value {
		ts := make([]*graph.Thunk, n)
		for i := range ts {
			i := i
			ts[i] = exec.NewThunk(ctx, func(exec.Ctx) graph.Value { return int64(i) })
		}
		for _, t := range ts {
			ctx.Par(t)
		}
		var s int64
		for _, t := range ts {
			s += ctx.Force(t).(int64)
		}
		return s
	}
}

func empty(exec.Ctx) graph.Value { return int64(0) }

func (p *probes) native() error {
	runEmpty := func(workers int) func() error {
		return func() error { _, err := native.Run(native.NewConfig(workers), empty); return err }
	}
	s, err := timeN(p.n(300, 5), runEmpty(p.rc.p))
	if err != nil {
		return err
	}
	p.m["native.run_empty_us"] = s * 1e6

	pool := native.NewPool(native.NewConfig(p.rc.p))
	s, err = timeN(p.n(3000, 5), func() error {
		h, err := pool.Submit(native.JobConfig{}, empty)
		if err != nil {
			return err
		}
		_, err = h.Wait()
		return err
	})
	pool.Close()
	if err != nil {
		return err
	}
	p.m["native.pool_submit_empty_us"] = s * 1e6

	sparks := p.n(100_000, 100)
	base, err := timeN(p.n(50, 3), runEmpty(1))
	if err != nil {
		return err
	}
	s, err = timeN(p.n(7, 2), func() error {
		res, err := native.Run(native.NewConfig(1), sparkProgram(sparks))
		if err == nil && res.Value.(int64) != int64(sparks)*int64(sparks-1)/2 {
			err = fmt.Errorf("spark probe: wrong sum %v", res.Value)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.m["native.spark_ns"] = (s - base) * 1e9 / float64(sparks)
	return nil
}

// overheads prices the observability planes on a lattice job: a pool
// with a metrics registry against one without, and an armed injector
// with an empty plan against none.
func (p *probes) overheads() error {
	g := apsp.RandomGraph(p.n(150, 16), p.rc.seed, 100, 60)
	want := apsp.FloydWarshall(g)
	check := func(v graph.Value) error {
		if got, ok := v.(apsp.Graph); !ok || !apsp.Equal(got, want) {
			return fmt.Errorf("overhead probe: APSP differs from the oracle")
		}
		return nil
	}
	reps := p.n(8, 2)
	poolJob := func(reg *metrics.Registry) (float64, error) {
		cfg := native.NewConfig(p.rc.p)
		cfg.Metrics = reg
		pool := native.NewPool(cfg)
		defer pool.Close()
		return timeN(reps, func() error {
			h, err := pool.Submit(native.JobConfig{}, apsp.Program(g, 0))
			if err != nil {
				return err
			}
			r, err := h.Wait()
			if err != nil {
				return err
			}
			return check(r.Value)
		})
	}
	runJob := func(inj *faults.Injector) (float64, error) {
		return timeN(reps, func() error {
			cfg := native.NewConfig(p.rc.p)
			cfg.Faults = inj
			r, err := native.Run(cfg, apsp.Program(g, 0))
			if err != nil {
				return err
			}
			return check(r.Value)
		})
	}
	// Base first, variant second, twice: the second pass's medians are
	// the ones compared, after both sides have warmed the same heap.
	var plain, withReg, bare, armed float64
	for pass := 0; pass < 2; pass++ {
		var err error
		if plain, err = poolJob(nil); err != nil {
			return err
		}
		if withReg, err = poolJob(metrics.New()); err != nil {
			return err
		}
		if bare, err = runJob(nil); err != nil {
			return err
		}
		if armed, err = runJob(faults.NewInjector(nil)); err != nil {
			return err
		}
	}
	p.m["metrics.enabled_overhead_x"] = ratio(withReg, plain)
	p.m["faults.armed_overhead_x"] = ratio(armed, bare)
	return nil
}

// splitter compares lazy binary splitting, pinned to the fixed run's
// grain, with the fixed chunk list, on one worker.
func (p *probes) splitter() error {
	n := p.n(2000, 200)
	chunks := 40
	grain := n / chunks
	want := euler.SumTotientSieve(n)
	run := func(prog func() exec.Program) (float64, error) {
		return timeN(p.n(3, 2), func() error {
			r, err := native.Run(native.NewConfig(1), prog())
			if err == nil && r.Value.(int64) != want {
				err = fmt.Errorf("splitter probe: wrong sum %v", r.Value)
			}
			return err
		})
	}
	fixed, err := run(func() exec.Program { return euler.Program(n, chunks, 0, true) })
	if err != nil {
		return err
	}
	auto, err := run(func() exec.Program {
		return euler.AutoProgram(n, tune.NewSplitter("probe", grain, grain, grain))
	})
	if err != nil {
		return err
	}
	p.m["tune.splitter_vs_fixed_x"] = ratio(auto, fixed)
	return nil
}

// payloads are the block and the row, from the run's seed.
func (p *probes) payloads() (matmul.Mat, []int32) {
	block := matmul.Random(96, p.rc.seed)
	row := append([]int32(nil), apsp.RandomGraph(128, p.rc.seed, 100, 60)[0]...)
	return block, row
}

func (p *probes) codec() error {
	block, row := p.payloads()
	var blockBytes int64
	for _, v := range []graph.Value{block, row} {
		size, err := eden.SizeOfChecked(v)
		if err != nil {
			return err
		}
		enc, err := wire.Encode(v)
		if err != nil {
			return err
		}
		if int64(len(enc)) != size {
			return fmt.Errorf("codec probe: %T encodes to %d bytes, SizeOfChecked says %d", v, len(enc), size)
		}
		if blockBytes == 0 {
			blockBytes = size
		}
	}
	secPer := func(reps int, f func()) float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		return time.Since(t0).Seconds() / float64(reps)
	}
	mbps := func(reps int, f func()) float64 { return float64(blockBytes) / (1 << 20) / secPer(reps, f) }
	nsPer := func(reps int, f func()) float64 { return 1e9 * secPer(reps, f) }
	big, small := p.n(2000, 10), p.n(200_000, 100)
	p.m["eden.size_mb_per_s"] = mbps(big*10, func() { _, _ = eden.SizeOfChecked(block) })
	p.m["eden.size_ns_small"] = nsPer(small, func() { _, _ = eden.SizeOfChecked(row) })
	encBlock, _ := wire.Encode(block)
	encRow, _ := wire.Encode(row)
	p.m["wire.encode_mb_per_s"] = mbps(big, func() { _, _ = wire.Encode(block) })
	p.m["wire.decode_mb_per_s"] = mbps(big, func() { _, _ = wire.Decode(encBlock) })
	p.m["wire.encode_ns_small"] = nsPer(small, func() { _, _ = wire.Encode(row) })
	p.m["wire.decode_ns_small"] = nsPer(small, func() { _, _ = wire.Decode(encRow) })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < small; i++ {
		b, _ := wire.Encode(row)
		_, _ = wire.Decode(b)
	}
	runtime.ReadMemStats(&m1)
	p.m["wire.allocs_per_roundtrip_small"] = float64(m1.Mallocs-m0.Mallocs) / float64(small)
	return nil
}

// edenSend times the in-process send path (force, size, deep copy,
// deliver) between two PEs: a one-way stream of blocks for bandwidth, a
// ping-pong of rows for latency.
func (p *probes) edenSend() error {
	block, row := p.payloads()
	blockBytes, err := eden.SizeOfChecked(block)
	if err != nil {
		return err
	}
	blocks, trips := p.n(300, 5), p.n(3000, 10)
	var bwS, rttS float64
	prog := func(c pe.Ctx) graph.Value {
		in, out := c.NewStream(1)
		backIn, backOut := c.NewStream(0)
		c.Spawn(1, "echo", func(w pe.Ctx) {
			for i := 0; i < blocks; i++ {
				w.StreamRecv(in)
			}
			w.StreamSend(backOut, int64(blocks))
			for {
				v, ok := w.StreamRecv(in)
				if !ok {
					w.StreamClose(backOut)
					return
				}
				w.StreamSend(backOut, v)
			}
		})
		t0 := time.Now()
		for i := 0; i < blocks; i++ {
			c.StreamSend(out, block)
		}
		c.StreamRecv(backIn)
		bwS = time.Since(t0).Seconds()
		t0 = time.Now()
		for i := 0; i < trips; i++ {
			c.StreamSend(out, row)
			c.StreamRecv(backIn)
		}
		rttS = time.Since(t0).Seconds()
		c.StreamClose(out)
		c.StreamRecv(backIn)
		return int64(0)
	}
	if _, err := nativeeden.Run(nativeeden.NewConfig(2), prog); err != nil {
		return err
	}
	p.m["nativeeden.send_mb_per_s"] = float64(blockBytes) * float64(blocks) / (1 << 20) / bwS
	p.m["nativeeden.send_us_small"] = rttS * 1e6 / float64(trips)
	return nil
}

func (p *probes) edenEmpty() error {
	none := func(pe.Ctx) graph.Value { return int64(0) }
	s, err := timeN(p.n(300, 5), func() error {
		_, err := nativeeden.Run(nativeeden.NewConfig(p.rc.p+1), none)
		return err
	})
	if err != nil {
		return err
	}
	p.m["nativeeden.run_empty_us"] = s * 1e6
	lane := nativeeden.NewResident(nativeeden.NewConfig(p.rc.p + 1))
	s, err = timeN(p.n(2000, 5), func() error {
		_, err := lane.RunJob(nativeeden.JobConfig{}, none)
		return err
	})
	lane.Close()
	if err != nil {
		return err
	}
	p.m["nativeeden.resident_job_empty_us"] = s * 1e6
	return nil
}

// cluster prices the multi-process path on the ring job: launch alone,
// what a message costs over the in-process run, what the coordinator
// adds around the root's own wall time, and the same job over loopback TCP.
func (p *probes) cluster() error {
	s, err := timeN(p.n(5, 2), func() error {
		_, err := cluster.Run(cluster.Config{Procs: 2, PerProc: 2, Transport: "unix", Spec: "sumeuler?n=1"})
		return err
	})
	if err != nil {
		return err
	}
	p.m["cluster.launch_ms"] = s * 1e3

	spec := ringSpec(p.rc.sz, p.rc.seed)
	prog, check, err := cluster.BuildProgram(spec)
	if err != nil {
		return err
	}
	reps := p.n(8, 2)
	var inproc, unixWall, coordExtra, tcp []float64
	var msgs int64
	for i := 0; i < reps; i++ {
		r, err := nativeeden.Run(nativeeden.NewConfig(4), prog)
		if err != nil {
			return err
		}
		inproc = append(inproc, float64(r.WallNS))
		for _, transport := range []string{"unix", "tcp"} {
			t0 := time.Now()
			cr, err := cluster.Run(cluster.Config{Procs: 2, PerProc: 2, Transport: transport, Spec: spec})
			if err != nil {
				return err
			}
			if i == 0 {
				if err := check(cr.Value); err != nil {
					return err
				}
			}
			if transport == "tcp" {
				tcp = append(tcp, time.Since(t0).Seconds())
				continue
			}
			unixWall = append(unixWall, float64(cr.WallNS))
			coordExtra = append(coordExtra, float64(cr.CoordNS-cr.WallNS)/1e6)
			msgs = cr.Total.Messages
		}
	}
	p.m["cluster.msg_overhead_us"] = ratio((median(unixWall)-median(inproc))/1e3, float64(msgs))
	p.m["cluster.coord_minus_wall_ms"] = median(coordExtra)
	p.m["cluster.tcp_job_s_p50"] = median(tcp)
	return nil
}

// serve is a single client visiting every shape a few times on an
// otherwise idle server. serve_mix has these from its own one-client
// windows and skips the probe.
func (p *probes) serve() error {
	if p.rc.sz.Serve == nil {
		return nil
	}
	if _, done := p.m["serve.do_min_us"]; done {
		return nil
	}
	si, err := setupServe(p.rc.sz.Serve, 1, p.rc.seed)
	if err != nil {
		return err
	}
	defer si.close()
	js := si.window(1, 0, p.n(5, 1)*len(si.shapes), p.rc.seed, 0, nil, nil)
	for _, j := range js {
		if j.err != nil {
			return fmt.Errorf("serve probe: %w", j.err)
		}
	}
	un := newUnloaded()
	un.add(si, js)
	un.export(p.m)
	us, err := doMinUS(si.srv, p.n(300, 10))
	if err != nil {
		return err
	}
	p.m["serve.do_min_us"] = us
	return nil
}

// sim keeps figure regeneration in view: the simulated Fig. 1 at quick
// scale, which must come out identical twice.
func (p *probes) sim() error {
	var out [2]string
	var xs []float64
	for i := range out {
		t0 := time.Now()
		out[i] = experiments.RunFig1(p.rc.sz.Fig1).String()
		xs = append(xs, time.Since(t0).Seconds())
	}
	if out[0] != out[1] {
		return fmt.Errorf("sim probe: two runs of Fig. 1 at quick scale differ")
	}
	p.m["sim.fig1_quick_s"] = median(xs)
	return nil
}
