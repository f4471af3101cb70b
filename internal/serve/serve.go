package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/metrics"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/tune"
)

// Config sizes the resident service.
type Config struct {
	// Workers is the native pool's worker count (0 = GOMAXPROCS).
	Workers int
	// PEs is each Eden lane's processing-element count (0 = 2).
	PEs int
	// Lanes is how many Eden lanes run side by side (0 = 2). A lane
	// runs one job at a time (Eden's failure protocol is run-global),
	// so Lanes bounds eden-backend concurrency.
	Lanes int
	// QueueCap bounds each tenant's pending queue; a submission beyond
	// it is rejected with ErrQueueFull (0 = 64).
	QueueCap int
	// MaxInflight bounds concurrently executing jobs across all tenants
	// (0 = 2 x Workers).
	MaxInflight int
	// DefaultDeadline applies to jobs that request none (0 = 30s);
	// MaxDeadline caps what a request may ask for (0 = 2m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Backoff overrides the native pool's idle-wait policy (nil = the
	// fixed default, parking off).
	Backoff *tune.Backoff
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PEs <= 0 {
		c.PEs = 2
	}
	if c.Lanes <= 0 {
		c.Lanes = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * c.Workers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	return c
}

// JobResponse is the outcome of one job, in wire form. Value is the
// workload's oracle-checked summary (a sum or checksum), never the raw
// result — images and matrices stay server-side.
type JobResponse struct {
	Workload string     `json:"workload"`
	Backend  string     `json:"backend"`
	Tenant   string     `json:"tenant"`
	OK       bool       `json:"ok"`
	Value    any        `json:"value,omitempty"`
	Error    *ErrorInfo `json:"error,omitempty"`
	// QueueNS is time spent admitted-but-undispatched; RunNS is backend
	// execution time; TotalNS covers admission to completion.
	QueueNS int64 `json:"queue_ns"`
	RunNS   int64 `json:"run_ns"`
	TotalNS int64 `json:"total_ns"`
	// TraceID names the job's stored per-worker trace when the request
	// asked for one (GET /api/v1/trace?id=<TraceID>).
	TraceID string `json:"trace_id,omitempty"`
}

// task is one admitted job waiting in its tenant's queue.
type task struct {
	req      JobRequest
	built    *builtJob
	tenant   string
	admitted time.Time
	done     chan *JobResponse
}

// tenantQ is one tenant's FIFO, plus a small ring of recent completion
// timestamps so a queue-full rejection can quote an honest Retry-After
// from the tenant's observed drain rate.
type tenantQ struct {
	name  string
	q     []*task
	done  [16]time.Time
	doneN int
}

// recordDone notes one completed job. Caller holds s.mu.
func (tq *tenantQ) recordDone(now time.Time) {
	tq.done[tq.doneN%len(tq.done)] = now
	tq.doneN++
}

// drainRate estimates the tenant's completions per second over the
// ring's window, or 0 with fewer than two samples. Caller holds s.mu.
func (tq *tenantQ) drainRate() float64 {
	n := tq.doneN
	if n > len(tq.done) {
		n = len(tq.done)
	}
	if n < 2 {
		return 0
	}
	oldest := tq.done[(tq.doneN-n)%len(tq.done)]
	newest := tq.done[(tq.doneN-1)%len(tq.done)]
	span := newest.Sub(oldest).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(n-1) / span
}

// Server is the resident compute service: a long-lived native pool, a
// set of resident Eden lanes, bounded per-tenant queues and one
// dispatcher goroutine that drains them round-robin under a global
// inflight bound. Jobs carry their own deadline, fault budget and
// error scope; the backends guarantee a failing job cannot take a
// worker, a lane or a neighbouring job with it.
type Server struct {
	cfg   Config
	pool  *native.Pool
	lanes chan *nativeeden.Resident // free-lane queue
	all   []*nativeeden.Resident

	// oracles memoises the sequential reference results the response
	// gate compares against.
	oracles oracleCache

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenantQ
	order    []string // round-robin ring of tenant names
	rr       int
	queued   int
	draining bool

	inflight  chan struct{} // counting semaphore: executing jobs
	jobs      sync.WaitGroup
	stopped   chan struct{} // dispatcher exited
	closeOnce sync.Once     // backend shutdown

	start      time.Time
	jobsDone   atomic.Int64
	jobsFailed atomic.Int64
	rejected   atomic.Int64 // queue_full + draining rejections

	// reg is the service's metrics registry — always on (the nil-check
	// disabled path belongs to the raw backends; a resident service
	// without telemetry is not worth running). sm is the serve-level
	// series; the pool and lanes register their own on the same reg.
	reg *metrics.Registry
	sm  *serveMetrics

	// The per-job trace store (GET /api/v1/trace).
	traceSeq   atomic.Int64
	traceMu    sync.Mutex
	traces     map[string]*eventlog.Dump
	traceOrder []string // FIFO eviction order
}

// New starts the service: the pool's workers spin up, the lanes' PEs
// are built, the dispatcher starts. The server is ready for Do.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.New()
	nc := native.NewConfig(cfg.Workers)
	nc.Metrics = reg
	nc.Backoff = cfg.Backoff
	s := &Server{
		cfg:      cfg,
		pool:     native.NewPool(nc),
		lanes:    make(chan *nativeeden.Resident, cfg.Lanes),
		tenants:  map[string]*tenantQ{},
		inflight: make(chan struct{}, cfg.MaxInflight),
		stopped:  make(chan struct{}),
		start:    time.Now(),
		reg:      reg,
	}
	s.cond = sync.NewCond(&s.mu)
	s.sm = newServeMetrics(reg, s)
	for i := 0; i < cfg.Lanes; i++ {
		ec := nativeeden.NewConfig(cfg.PEs)
		ec.Metrics = reg
		l := nativeeden.NewResident(ec)
		s.all = append(s.all, l)
		s.lanes <- l
	}
	go s.dispatch()
	return s
}

// Metrics exposes the service's registry (the /metrics exposition and
// the statusz delta stream read from it).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Do submits one job and blocks until it completes (or is rejected at
// admission). It is the synchronous core the HTTP gateway wraps; any
// number of callers may be in Do concurrently — that is the service's
// whole point.
func (s *Server) Do(req JobRequest) *JobResponse {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anon"
	}
	resp := &JobResponse{Workload: req.Workload, Tenant: tenant}
	// Tenant series are created (idempotently) before s.mu is taken:
	// registration locks the registry, and the tenant's depth gauge will
	// lock s.mu at exposition, so the orders must never nest.
	tm := s.sm.tenant(s, tenant)
	s.sm.submitted.Inc()
	tm.submitted.Inc()

	built, err := buildJob(req, s.cfg.PEs)
	if err != nil {
		resp.Error = classifyInfo(err)
		s.sm.reject(tm, resp.Error.Code)
		return resp
	}
	resp.Backend = built.backend
	if built.deadline == 0 {
		built.deadline = s.cfg.DefaultDeadline
	}
	if built.deadline > s.cfg.MaxDeadline {
		built.deadline = s.cfg.MaxDeadline
	}

	t := &task{req: req, built: built, tenant: tenant,
		admitted: time.Now(), done: make(chan *JobResponse, 1)}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(1)
		resp.Error = classifyInfo(ErrDraining)
		s.sm.reject(tm, CodeDraining)
		return resp
	}
	tq := s.tenants[tenant]
	if tq == nil {
		tq = &tenantQ{name: tenant}
		s.tenants[tenant] = tq
		s.order = append(s.order, tenant)
	}
	if len(tq.q) >= s.cfg.QueueCap {
		retry := computeRetryAfter(len(tq.q), tq.drainRate())
		s.mu.Unlock()
		s.rejected.Add(1)
		resp.Error = classifyInfo(ErrQueueFull)
		resp.Error.RetryAfterSec = retry
		s.sm.reject(tm, CodeQueueFull)
		return resp
	}
	tq.q = append(tq.q, t)
	s.queued++
	s.cond.Signal()
	s.mu.Unlock()

	return <-t.done
}

// dispatch is the scheduler: round-robin over tenants with queued
// work, one job per turn, gated on the inflight semaphore. It exits
// when drain has begun and every queue is empty — admitted work is
// always dispatched, drain or not.
func (s *Server) dispatch() {
	defer close(s.stopped)
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queued == 0 && s.draining {
			s.mu.Unlock()
			return
		}
		t := s.popNextLocked()
		s.mu.Unlock()

		s.inflight <- struct{}{} // MaxInflight gate; holds the popped task, not the lock
		s.jobs.Add(1)
		go func(t *task) {
			defer func() { <-s.inflight; s.jobs.Done() }()
			s.execute(t)
		}(t)
	}
}

// popNextLocked advances the round-robin to the next tenant with work
// and pops its head task. Caller holds mu and has checked queued > 0.
func (s *Server) popNextLocked() *task {
	for i := 0; i < len(s.order); i++ {
		tq := s.tenants[s.order[s.rr%len(s.order)]]
		s.rr++
		if len(tq.q) == 0 {
			continue
		}
		t := tq.q[0]
		copy(tq.q, tq.q[1:])
		tq.q[len(tq.q)-1] = nil
		tq.q = tq.q[:len(tq.q)-1]
		s.queued--
		return t
	}
	return nil // unreachable while queued > 0
}

// execute runs one dispatched task on its backend and completes its
// response. Runtime failures are classified, never propagated — a job
// error is data here.
func (s *Server) execute(t *task) {
	resp := &JobResponse{Workload: t.req.Workload, Backend: t.built.backend, Tenant: t.tenant}
	resp.QueueNS = time.Since(t.admitted).Nanoseconds()
	started := time.Now()

	// A traced job gets its own eventlog (one ring per worker / PE) and
	// a TraceMark identity stamped before anything runs.
	var traceMark int32
	if t.req.Trace {
		traceMark, resp.TraceID = s.nextTraceID()
	}

	var value any
	var err error
	var events *eventlog.Log
	switch t.built.backend {
	case "gph":
		var h *native.JobHandle
		h, err = s.pool.Submit(native.JobConfig{
			Deadline: t.built.deadline, Faults: t.built.injector,
			EventLog: t.req.Trace, TraceID: traceMark}, t.built.gph)
		if err == nil {
			var res *native.JobResult
			res, err = h.Wait()
			if res != nil {
				events = res.Events
			}
			if err == nil {
				value = res.Value
			}
		}
	case "eden":
		lane := <-s.lanes // blocks while all lanes busy; inflight token held
		var res *nativeeden.Result
		res, err = lane.RunJob(nativeeden.JobConfig{
			Deadline: t.built.deadline, Faults: t.built.injector,
			EventLog: t.req.Trace, TraceID: traceMark}, t.built.eden)
		if res != nil {
			events = res.Events
		}
		if err == nil {
			value = res.Value
		}
		s.lanes <- lane
	}
	if err == nil {
		value, err = s.oracles.check(t.built.inst, value) // oracle gate: wrong answers are failures
	}
	resp.RunNS = time.Since(started).Nanoseconds()
	resp.TotalNS = time.Since(t.admitted).Nanoseconds()
	if err != nil {
		resp.Error = classifyInfo(err)
		s.jobsFailed.Add(1)
	} else {
		resp.OK = true
		resp.Value = value
		s.jobsDone.Add(1)
	}
	if resp.TraceID != "" && events != nil {
		// The rings are drained (the job's threads joined before its
		// result was built), so the dump is a consistent snapshot. Failed
		// jobs keep their partial trace — that is when you want it most.
		d := events.Dump(traceAgents(t.built.backend, events.Workers()))
		d.TraceID = resp.TraceID
		d.Workload = t.req.Workload
		d.Backend = t.built.backend
		d.Tenant = t.tenant
		if err != nil {
			d.Error = err.Error()
		}
		s.sm.traceDropped.Add(d.Dropped)
		s.storeTrace(resp.TraceID, d)
	}
	s.sm.finish(resp)
	s.mu.Lock()
	if tq := s.tenants[t.tenant]; tq != nil {
		tq.recordDone(time.Now())
	}
	s.mu.Unlock()
	t.done <- resp
}

// Status is one /statusz snapshot.
type Status struct {
	UptimeNS    int64          `json:"uptime_ns"`
	Workers     int            `json:"workers"`
	Lanes       int            `json:"lanes"`
	PEs         int            `json:"pes"`
	Draining    bool           `json:"draining"`
	Queued      int            `json:"queued"`
	QueueDepths map[string]int `json:"queue_depths,omitempty"`
	Inflight    int            `json:"inflight"`
	JobsDone    int64          `json:"jobs_done"`
	JobsFailed  int64          `json:"jobs_failed"`
	Rejected    int64          `json:"rejected"`
	// Pool is the native pool's cumulative counter snapshot (monotone
	// across Status calls) and GC its pool-scoped collector telemetry.
	Pool native.Stats   `json:"pool"`
	GC   native.GCStats `json:"gc"`
	// LaneJobsDone/Failed aggregate the Eden lanes.
	LaneJobsDone   int64 `json:"lane_jobs_done"`
	LaneJobsFailed int64 `json:"lane_jobs_failed"`
	// TraceDroppedEvents counts trace events lost to eventlog ring
	// wraparound across all traced jobs; TracesStored is the trace
	// store's current population.
	TraceDroppedEvents int64 `json:"trace_dropped_events"`
	TracesStored       int   `json:"traces_stored"`
	// Deltas, present only in ?stream=N snapshots after the first,
	// holds the registry counters that moved since the previous
	// snapshot (counter name with labels -> increment).
	Deltas map[string]float64 `json:"deltas,omitempty"`
}

// Statusz snapshots the service. Safe from any goroutine at any time.
func (s *Server) Statusz() Status {
	st := Status{
		UptimeNS: time.Since(s.start).Nanoseconds(),
		Workers:  s.cfg.Workers, Lanes: s.cfg.Lanes, PEs: s.cfg.PEs,
		JobsDone:   s.jobsDone.Load(),
		JobsFailed: s.jobsFailed.Load(),
		Rejected:   s.rejected.Load(),
		Inflight:   len(s.inflight),
		Pool:       s.pool.Snapshot(),
		GC:         s.pool.GC(),
	}
	s.mu.Lock()
	st.Draining = s.draining
	st.Queued = s.queued
	if len(s.tenants) > 0 {
		st.QueueDepths = make(map[string]int, len(s.tenants))
		for name, tq := range s.tenants {
			st.QueueDepths[name] = len(tq.q)
		}
	}
	s.mu.Unlock()
	for _, l := range s.all {
		st.LaneJobsDone += l.JobsDone()
		st.LaneJobsFailed += l.JobsFailed()
	}
	st.TraceDroppedEvents = s.sm.traceDropped.Value()
	st.TracesStored = s.TracesStored()
	return st
}

// Draining reports whether drain has begun (healthz turns unready).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close drains gracefully: new submissions are rejected with
// ErrDraining, every already-admitted job is dispatched and runs to
// completion (each bounded by its own deadline), then the pool and the
// lanes shut down. Idempotent; safe to call while Do callers are
// blocked — they all receive responses.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.stopped // dispatcher has drained the queues
	s.jobs.Wait()
	s.closeOnce.Do(func() {
		s.pool.Close()
		for _, l := range s.all {
			l.Close()
		}
	})
}
