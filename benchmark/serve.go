package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/native"
	"parhask/internal/serve"
	"parhask/internal/sim"
	"parhask/internal/workloads/apsp"
	"parhask/internal/workloads/euler"
	"parhask/internal/workloads/fuzz"
	"parhask/internal/workloads/mandel"
	"parhask/internal/workloads/matmul"
)

// shape is one kind of request in the served mix.
type shape struct {
	Name string // suffix of its serve.job_s_p50.<name> metric
	Req  serve.JobRequest
}

// fullShapes is the nine-shape mix: two near-empty jobs that price the
// serving path, six of 4–10 ms, and one of ~33 ms that sets p90. The six
// are sized into one cluster on purpose: the median of the mix then falls
// where its distribution is dense. With the issue's smaller sizes it fell
// in a gap between 1.3 ms and 3 ms jobs, and a 7 % change of host speed
// moved it 23 %. sumeuler_eden_memo is deliberately not compute: the Eden
// sumEuler kernel memoises φ process-wide, so after its first run the job
// is dispatch, a lane hand-off and map lookups.
func fullShapes() []shape {
	return []shape{
		{"sumeuler_gph", serve.JobRequest{Workload: "sumeuler", N: 1500}},
		{"sumeuler_eden_memo", serve.JobRequest{Workload: "sumeuler", N: 800, Backend: "eden"}},
		{"matmul_gph", serve.JobRequest{Workload: "matmul", N: 192}},
		{"matmul_eden", serve.JobRequest{Workload: "matmul", N: 128, Backend: "eden"}},
		{"apsp_gph", serve.JobRequest{Workload: "apsp", N: 96}},
		{"apsp_eden", serve.JobRequest{Workload: "apsp", N: 128, Backend: "eden"}},
		{"fuzz_gph", serve.JobRequest{Workload: "fuzz", N: 400}},
		{"mandel_gph", serve.JobRequest{Workload: "mandel", Width: 128, Height: 96}},
		{"mandel_eden", serve.JobRequest{Workload: "mandel", Width: 96, Height: 72, Backend: "eden"}},
	}
}

// expected computes a shape's response value by sequential code that
// shares nothing with the served runtimes. The apsp generator arguments
// (weights to 100, density 50) are the service's own.
func expected(r serve.JobRequest) (float64, error) {
	switch r.Workload {
	case "sumeuler":
		return float64(euler.SumTotientSieve(r.N)), nil
	case "matmul":
		return matmul.Checksum(matmul.MulOracle(matmul.Random(r.N, r.Seed), matmul.Random(r.N, r.Seed+1))), nil
	case "apsp":
		return float64(apsp.Checksum(apsp.FloydWarshall(apsp.RandomGraph(r.N, r.Seed, 100, 50)))), nil
	case "fuzz":
		return float64(fuzz.Generate(r.Seed, r.N).Expected()), nil
	case "mandel":
		return float64(mandel.Checksum(mandel.Render(nopCtx{}, mandel.DefaultParams(r.Width, r.Height)))), nil
	}
	return 0, fmt.Errorf("no oracle for served workload %q", r.Workload)
}

// serveInst is one set-up of the served system: server, HTTP gateway,
// one keep-alive connection per client, and the oracle value per shape.
type serveInst struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*http.Client
	shapes  []shape
	want    []float64
}

func setupServe(shapes []shape, clients int, seed uint64) (*serveInst, error) {
	si := &serveInst{srv: serve.New(serve.Config{}), shapes: append([]shape(nil), shapes...)}
	si.ts = httptest.NewServer(si.srv.Handler())
	for i := 0; i < clients; i++ {
		si.clients = append(si.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}})
	}
	for i := range si.shapes {
		si.shapes[i].Req.Seed = 1 + seed%1_000_000
		w, err := expected(si.shapes[i].Req)
		if err != nil {
			si.close()
			return nil, err
		}
		si.want = append(si.want, w)
	}
	// One submission per shape fills the server's oracle and memo caches
	// and the lanes' arenas before anything is timed.
	for i := range si.shapes {
		if j := si.do(si.clients[i%clients], i, false); j.err != nil {
			si.close()
			return nil, fmt.Errorf("warm-up %s: %w", si.shapes[i].Name, j.err)
		}
	}
	return si, nil
}

func (si *serveInst) close() {
	for _, c := range si.clients {
		c.CloseIdleConnections()
	}
	si.ts.Close()
	si.srv.Close()
}

// served is one request as the client saw it.
type served struct {
	shape    int
	startNS  int64 // on the span recorder's clock (0 if untraced run)
	lat      float64
	resp     serve.JobResponse
	rejected bool
	err      error
}

// do submits one request over HTTP and checks the response against the
// shape's oracle value.
func (si *serveInst) do(c *http.Client, shapeIdx int, trace bool) served {
	j := served{shape: shapeIdx}
	req := si.shapes[shapeIdx].Req
	req.Trace = trace
	body, err := json.Marshal(req)
	if err != nil {
		j.err = err
		return j
	}
	t0 := time.Now()
	hr, err := c.Post(si.ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	j.lat = time.Since(t0).Seconds()
	if err != nil {
		j.err = err
		return j
	}
	j.rejected = hr.StatusCode == http.StatusTooManyRequests
	if err := json.Unmarshal(raw, &j.resp); err != nil {
		j.err = fmt.Errorf("status %d: %w", hr.StatusCode, err)
		return j
	}
	if !j.resp.OK {
		j.err = fmt.Errorf("status %d: %+v", hr.StatusCode, j.resp.Error)
		return j
	}
	got, ok := j.resp.Value.(float64)
	// The parallel matmul sums in another order than the oracle.
	if want := si.want[shapeIdx]; !ok || math.Abs(got-want) > 1e-9*math.Abs(want) {
		j.err = fmt.Errorf("%s = %v, oracle says %v", si.shapes[shapeIdx].Name, j.resp.Value, want)
	}
	return j
}

// fetchTrace pulls a traced job's event dump off the live server.
func (si *serveInst) fetchTrace(c *http.Client, id string) (*eventlog.Dump, error) {
	hr, err := c.Get(si.ts.URL + "/api/v1/trace?id=" + id)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", id, hr.StatusCode)
	}
	var d eventlog.Dump
	if err := json.NewDecoder(hr.Body).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}

// window drives k closed-loop clients, each dealing shapes from its own
// seeded stream, until the window is over (or, with perClient > 0, until
// each has sent that many, in shape order). Every traceEvery-th request of a client is
// traced when traceEvery > 0.
func (si *serveInst) window(k int, d time.Duration, perClient int, seed uint64, traceEvery int, sp *spanRec, acc *layerAcc) []served {
	var mu sync.Mutex
	var out []served
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for ci := 0; ci < k; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := si.clients[ci]
			rng := sim.NewPRNG(seed + uint64(ci)*7919)
			order := make([]int, len(si.shapes)) // the probe (perClient > 0) visits them in order
			for i := range order {
				order[i] = i
			}
			var mine []served
			for n := 0; ; n++ {
				if perClient > 0 {
					if n >= perClient {
						break
					}
				} else if !time.Now().Before(deadline) {
					break
				}
				// Shapes are dealt from seeded shuffles of the whole set,
				// one after another: a uniform draw in which every shape
				// is exactly a ninth of the requests, so the percentiles
				// of the mix do not move with the luck of the draw.
				if n%len(order) == 0 && perClient == 0 {
					for i := len(order) - 1; i > 0; i-- {
						j := rng.Intn(i + 1)
						order[i], order[j] = order[j], order[i]
					}
				}
				idx := order[n%len(order)]
				traced := traceEvery > 0 && n%traceEvery == traceEvery-1
				start := int64(0)
				if sp != nil {
					start = sp.now()
				}
				j := si.do(c, idx, traced)
				j.startNS = start
				if sp != nil && j.err == nil {
					si.recordSpans(c, sp, acc, &j)
				}
				mine = append(mine, j)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	return out
}

// recordSpans writes one served job's spans: the HTTP round trip as the
// client timed it, the server's own queue and run intervals inside it
// (their lengths are the server's; the gateway time that is left is
// split evenly before and after, since the client cannot see where it
// fell), and under the run the job's per-agent timeline when it was traced.
func (si *serveInst) recordSpans(c *http.Client, sp *spanRec, acc *layerAcc, j *served) {
	end := j.startNS + int64(j.lat*1e9)
	sh := si.shapes[j.shape]
	layer := "native"
	if sh.Req.Backend == "eden" {
		layer = "nativeeden"
	}
	sp.mu.Lock()
	job := len(sp.spans) + 1 // a served job is identified by its root span
	add := func(parent int, name, lay string, from, to int64) int {
		sp.spans = append(sp.spans, span{ID: len(sp.spans) + 1, Parent: parent, Job: job,
			Name: name, Layer: lay, StartNS: from, EndNS: to})
		return len(sp.spans)
	}
	root := add(0, "job:"+sh.Name, "workloads", j.startNS, end)
	rt := add(root, "http_roundtrip", "serve", j.startNS, end)
	q0 := j.startNS + max(0, (end-j.startNS-j.resp.TotalNS)/2)
	add(rt, "serve.queue", "serve", q0, q0+j.resp.QueueNS)
	run := add(rt, "serve.run", layer, q0+j.resp.QueueNS, q0+j.resp.QueueNS+j.resp.RunNS)
	sp.mu.Unlock()
	if j.resp.TraceID == "" {
		return
	}
	d, err := si.fetchTrace(c, j.resp.TraceID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve_mix: %v\n", err)
		return
	}
	lg, err := d.Log()
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve_mix: trace %s: %v\n", j.resp.TraceID, err)
		return
	}
	tl := lg.TraceAgents(d.Agents)
	sp.timeline(run, root, layer, tl)
	if acc != nil {
		acc.addTimeline(layer, tl)
	}
}

// unloaded collects what a single client sees with nothing else in
// flight: the latency floor of each shape and the server's own split.
type unloaded struct {
	byShape                    map[string][]float64
	queue, run, total, gateway []float64
}

func newUnloaded() *unloaded { return &unloaded{byShape: map[string][]float64{}} }

func (u *unloaded) add(si *serveInst, js []served) {
	for _, j := range js {
		if j.err != nil {
			continue
		}
		name := si.shapes[j.shape].Name
		u.byShape[name] = append(u.byShape[name], j.lat)
		u.queue = append(u.queue, float64(j.resp.QueueNS)/1e9)
		u.run = append(u.run, float64(j.resp.RunNS)/1e9)
		u.total = append(u.total, float64(j.resp.TotalNS)/1e9)
		u.gateway = append(u.gateway, (j.lat-float64(j.resp.TotalNS)/1e9)*1e3)
	}
}

func (u *unloaded) export(m map[string]float64) {
	m["serve.queue_s_p50"] = median(u.queue)
	m["serve.run_s_p50"] = median(u.run)
	m["serve.total_s_p50"] = median(u.total)
	m["serve.gateway_ms_p50"] = median(u.gateway)
	for name, xs := range u.byShape {
		m["serve.job_s_p50."+name] = median(xs)
	}
}

// doMinUS is the cost of the smallest job through Server.Do, no HTTP.
func doMinUS(srv *serve.Server, n int) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r := srv.Do(serve.JobRequest{Workload: "fuzz", N: 1})
		xs = append(xs, float64(time.Since(t0))/1e3)
		if !r.OK {
			return 0, fmt.Errorf("Server.Do fuzz n=1: %+v", r.Error)
		}
	}
	return median(xs), nil
}

// runServeMix is the served workload: a closed loop of P clients, with
// short single-client windows in between for the unloaded latency.
func runServeMix(rc *runCtx) (*runResult, error) {
	res := newRunResult()
	var si *serveInst
	for rep := 0; rep < rc.sz.SetupReps; rep++ {
		if si != nil {
			si.close()
		}
		t0 := time.Now()
		var err error
		if si, err = setupServe(rc.sz.Serve, rc.p, setupSeed(rc.seed, rep, rc.sz.SetupReps)); err != nil {
			return nil, fmt.Errorf("serve_mix: set-up: %w", err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer si.close()

	const cycles = 5
	oneD := time.Duration(rc.seconds / cycles / 4 * float64(time.Second))
	fullD := 3 * oneD
	traceEvery := 0
	if rc.traced {
		traceEvery = rc.sz.ServeTraceEvery
	}
	acc := newLayerAcc()
	un := newUnloaded()
	var windowMedians []float64
	var rejected int
	var sumLat, sumQueue, sumRun, sumTotal float64
	tally := func(js []served, key string) {
		for _, j := range js {
			res.attempted++
			if j.rejected {
				rejected++
			}
			if j.err != nil {
				res.failed++
				fmt.Fprintf(os.Stderr, "serve_mix: %v\n", j.err)
				continue
			}
			res.samples[key] = append(res.samples[key], j.lat)
			if key == "full" && rc.traced {
				k := "full_untraced"
				if j.resp.TraceID != "" {
					k = "full_traced"
				}
				res.samples[k] = append(res.samples[k], j.lat)
			}
		}
	}
	for cy := 0; cy < cycles; cy++ {
		ws := rc.seed + uint64(cy)*104729
		one := si.window(1, oneD, 0, ws, 0, rc.spans, nil)
		tally(one, "one")
		un.add(si, one)

		pool0 := si.srv.Statusz().Pool
		var gc0 gcCounters
		if rc.traced {
			gc0 = readGC()
		}
		cpu0, t0 := cpuSeconds(), time.Now()
		full := si.window(rc.p, fullD, 0, ws+1, traceEvery, rc.spans, acc)
		wall := time.Since(t0).Seconds()
		res.fullCPUS += cpuSeconds() - cpu0
		res.fullWallS += wall
		if rc.traced {
			gc1 := readGC()
			acc.gcJobs += len(full)
			acc.gc.cycles += gc1.cycles - gc0.cycles
			acc.gc.pauseNS += gc1.pauseNS - gc0.pauseNS
			acc.gc.alloc += gc1.alloc - gc0.alloc
		}
		pool1 := si.srv.Statusz().Pool
		acc.nat.Add(statsDelta(pool1, pool0))
		acc.natJobs += len(full)
		acc.natAgentNS += wall * 1e9 * float64(si.srv.Statusz().Workers)
		tally(full, "full")
		var lats []float64
		for _, j := range full {
			if j.err == nil {
				lats = append(lats, j.lat)
				sumLat += j.lat
				sumQueue += float64(j.resp.QueueNS) / 1e9
				sumRun += float64(j.resp.RunNS) / 1e9
				sumTotal += float64(j.resp.TotalNS) / 1e9
			}
		}
		windowMedians = append(windowMedians, median(lats))
	}
	// Retained heap is read with the server still up: its oracle cache,
	// memo tables and warm arenas are exactly what "retained" is about.
	// What the last job of each worker and lane left behind is not, so
	// every run ends on the same untimed closing sequence.
	for _, j := range si.window(1, 0, 2*len(si.shapes), rc.seed, 0, nil, nil) {
		if j.err != nil {
			return nil, fmt.Errorf("serve_mix: closing sequence: %w", j.err)
		}
	}
	res.retainedMB = retainedHeapMB()

	if d := spread(windowMedians); d > rc.spec.bound("job_s_p50") {
		res.flags = append(res.flags, noisyFlag(d, rc.spec.bound("job_s_p50")))
	}
	acc.export(res.layer)
	un.export(res.layer)
	res.layer["serve.rejected_share"] = ratio(float64(rejected), float64(res.attempted))
	res.layer["serve.queue_share"] = ratio(sumQueue, sumLat)
	res.layer["serve.run_share"] = ratio(sumRun, sumLat)
	res.layer["serve.gateway_share"] = ratio(sumLat-sumTotal, sumLat)
	if rc.traced {
		// The reference below the gateway: the same mix through
		// Server.Do, one caller, no HTTP and no JSON.
		rng := sim.NewPRNG(rc.seed)
		var ref []float64
		for i := 0; i < int(400*rc.sz.Probe)+len(si.shapes); i++ {
			req := si.shapes[rng.Intn(len(si.shapes))].Req
			t0 := time.Now()
			r := si.srv.Do(req)
			ref = append(ref, time.Since(t0).Seconds())
			if !r.OK {
				return nil, fmt.Errorf("serve_mix: Server.Do %s: %+v", req.Workload, r.Error)
			}
		}
		res.samples["ref"] = ref
		res.layer["workloads.ref_s_p50"] = median(ref)
		us, err := doMinUS(si.srv, int(300*rc.sz.Probe)+10)
		if err != nil {
			return nil, err
		}
		res.layer["serve.do_min_us"] = us
	}
	return res, nil
}

func statsDelta(a, b native.Stats) native.Stats {
	return native.Stats{
		SparksCreated: a.SparksCreated - b.SparksCreated, SparksDud: a.SparksDud - b.SparksDud,
		SparksConverted: a.SparksConverted - b.SparksConverted, SparksFizzled: a.SparksFizzled - b.SparksFizzled,
		Steals: a.Steals - b.Steals, StealAttempts: a.StealAttempts - b.StealAttempts,
		DupEntries: a.DupEntries - b.DupEntries, DupResults: a.DupResults - b.DupResults,
		BlockedForces: a.BlockedForces - b.BlockedForces, Forks: a.Forks - b.Forks,
		BackoffSleeps: a.BackoffSleeps - b.BackoffSleeps, BackoffNS: a.BackoffNS - b.BackoffNS,
		Parks: a.Parks - b.Parks, ParkedNS: a.ParkedNS - b.ParkedNS,
	}
}
