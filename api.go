package parhask

import (
	"parhask/internal/cluster"
	"parhask/internal/core"
	"parhask/internal/cost"
	"parhask/internal/eden"
	"parhask/internal/eventlog"
	"parhask/internal/exec"
	"parhask/internal/faults"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/gum"
	"parhask/internal/metrics"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/serve"
	"parhask/internal/skel"
	"parhask/internal/strategies"
	"parhask/internal/tune"
)

// Core heap-graph types.
type (
	// Value is any heap value.
	Value = graph.Value
	// Thunk is a shared, lazily evaluated heap node.
	Thunk = graph.Thunk
)

// NewThunk suspends fn as a heap thunk; NewValue wraps an evaluated value.
var (
	NewValue = graph.NewValue
)

// Ctx is the execution context of a GpH thread (Burn/Alloc/Force/Par/Fork).
type Ctx = rts.Ctx

// ExecCtx is the runtime-agnostic execution context: program bodies
// written against it run unchanged on the virtual-time simulation
// (*Ctx satisfies it) and on the native work-stealing runtime.
type ExecCtx = exec.Ctx

// ExecProgram is a runtime-agnostic program body.
type ExecProgram = exec.Program

// NewExecThunk suspends a runtime-agnostic function as a heap thunk.
var NewExecThunk = exec.Thunk

// NewThunkIn suspends a runtime-agnostic function as a thunk allocated
// through ctx's allocator: on the native runtime the owning worker's
// arena (batched allocation, see internal/graph.Arena), elsewhere the
// plain heap. Prefer it over NewExecThunk inside program bodies.
var NewThunkIn = exec.NewThunk

// Native: the real-concurrency work-stealing runtime (goroutines,
// wall-clock time).
type (
	// NativeConfig selects a native runtime setup (workers, black-holing).
	NativeConfig = native.Config
	// NativeResult is the outcome of a native run (value, wall time, stats).
	NativeResult = native.Result
	// NativeStats are the native runtime counters.
	NativeStats = native.Stats
	// NativeReport is the machine-readable run summary (wall time,
	// aggregate and per-worker counters, eventlog volume).
	NativeReport = native.Report
)

// Native entry points.
var (
	// RunNative executes a runtime-agnostic program on real goroutines.
	RunNative = native.Run
	// NewNativeConfig returns the default native configuration
	// (GOMAXPROCS workers, eager black-holing).
	NewNativeConfig = native.NewConfig
)

// GpH: the shared-heap runtime.
type (
	// GpHConfig selects a GpH runtime variant.
	GpHConfig = gph.Config
	// GpHResult is the outcome of a GpH run.
	GpHResult = gph.Result
	// GpHStats are the runtime counters of a GpH run.
	GpHStats = gph.Stats
)

// GpH runtime constructors and entry point.
var (
	// RunGpH executes main under a GpH configuration.
	RunGpH = gph.Run
	// NewGpHConfig is the fully-optimised runtime (work stealing, wakeup
	// barrier, spark threads).
	NewGpHConfig = gph.NewConfig
	// The paper's Fig. 1 variants:
	GpHPlainGHC69   = gph.PlainGHC69
	GpHBigAllocArea = gph.BigAllocArea
	GpHImprovedSync = gph.ImprovedSync
	GpHWorkStealing = gph.WorkStealingConfig
	// GpHLocalHeaps enables the §VI future-work semi-distributed heap:
	// per-capability local GC plus a rarely-collected global heap.
	GpHLocalHeaps = gph.LocalHeapsConfig
)

// GUM: the distributed-memory implementation of GpH (§III-B) — same
// programming model as RunGpH, but PEs with private heaps, passive work
// distribution by fishing, and FETCH/RESUME virtual shared memory.
type (
	// GUMConfig selects a GUM runtime setup.
	GUMConfig = gum.Config
	// GUMResult is the outcome of a GUM run.
	GUMResult = gum.Result
	// GUMStats are the protocol and runtime counters of a GUM run.
	GUMStats = gum.Stats
)

// GUM entry points.
var (
	// RunGUM executes a GpH main function on the distributed GUM runtime.
	RunGUM = gum.Run
	// NewGUMConfig returns a GUM configuration (PEs over cores).
	NewGUMConfig = gum.NewConfig
)

// Eden: the distributed-heap runtime.
type (
	// EdenConfig selects an Eden runtime setup.
	EdenConfig = eden.Config
	// EdenResult is the outcome of an Eden run.
	EdenResult = eden.Result
	// EdenStats are the runtime counters of an Eden run.
	EdenStats = eden.Stats
	// PCtx is the backend-neutral execution context of an Eden process
	// thread: programs written against it run on the simulated Eden
	// runtime (RunEden) and on the native distributed-heap backend
	// (RunEdenNative) unchanged.
	PCtx = pe.Ctx
	// PEProgram is a backend-neutral Eden program body.
	PEProgram = pe.Program
	// Inport/Outport are the ends of a one-value Eden channel.
	Inport  = pe.Inport
	Outport = pe.Outport
	// StreamIn/StreamOut are the ends of an element-by-element stream.
	StreamIn  = pe.StreamIn
	StreamOut = pe.StreamOut
)

// Eden entry points.
var (
	// RunEden executes main as the root process on PE 0.
	RunEden = eden.Run
	// NewEdenConfig returns an Eden configuration (PEs over cores).
	NewEdenConfig = eden.NewConfig
)

// Native Eden: the same distributed-heap programming model on real
// goroutines — one isolated heap per PE, copy-on-send channels,
// wall-clock time. Any PEProgram runs on both backends.
type (
	// EdenNativeConfig selects a native Eden setup (PEs, arena chunk,
	// eventlog).
	EdenNativeConfig = nativeeden.Config
	// EdenNativeResult is the outcome of a native Eden run (value, wall
	// time, per-PE and GC telemetry).
	EdenNativeResult = nativeeden.Result
	// EdenNativeStats are the aggregate counters of a native Eden run.
	EdenNativeStats = nativeeden.Stats
	// EdenNativePEStats is one PE's share of the counters.
	EdenNativePEStats = nativeeden.PEStats
	// EdenNativeReport is the machine-readable run summary.
	EdenNativeReport = nativeeden.Report
)

// Native Eden entry points.
var (
	// RunEdenNative executes a backend-neutral Eden program on the
	// native distributed-heap backend.
	RunEdenNative = nativeeden.Run
	// NewEdenNativeConfig returns the default native Eden configuration
	// (GOMAXPROCS PEs).
	NewEdenNativeConfig = nativeeden.NewConfig
)

// Evaluation strategies (GpH, §II-B).
type Strategy = strategies.Strategy

var (
	RWHNF         = strategies.RWHNF
	RNF           = strategies.RNF
	ParListWHNF   = strategies.ParListWHNF
	ParBuffer     = strategies.ParBuffer
	ParList       = strategies.ParList
	SeqList       = strategies.SeqList
	ParMapStrat   = strategies.ParMap
	NewStratThunk = strategies.Thunk
)

// Algorithmic skeletons (Eden, §II-A, plus the hierarchical and
// divide-and-conquer skeletons from the cited Eden literature).
type (
	// KV is a key-value pair for ParMapReduce.
	KV = skel.KV
	// DC describes a divide-and-conquer algorithm.
	DC = skel.DC
	// StageFunc is one pipeline stage; TaskFunc one master-worker task;
	// WorkerFunc one parMap worker.
	StageFunc  = skel.StageFunc
	TaskFunc   = skel.TaskFunc
	WorkerFunc = skel.WorkerFunc
)

var (
	ParMap           = skel.ParMap
	ParReduce        = skel.ParReduce
	ParMapReduce     = skel.ParMapReduce
	MasterWorker     = skel.MasterWorker
	MasterWorkerAt   = skel.MasterWorkerAt
	HierMasterWorker = skel.HierMasterWorker
	Ring             = skel.Ring
	Torus            = skel.Torus
	Pipeline         = skel.Pipeline
	DivideAndConquer = skel.DivideAndConquer
)

// Runtime comparison (the paper's primary contribution as one call).
type (
	// CompareVariant names a runtime organisation for Compare.
	CompareVariant = core.Variant
	// CompareOutcome is one organisation's result.
	CompareOutcome = core.Outcome
)

var (
	// Compare runs one GpH program under several runtime organisations.
	Compare = core.Compare
	// CompareVariants lists every comparable organisation.
	CompareVariants = core.AllVariants
)

// Fault injection and supervision: the deterministic seeded fault
// plane shared by both native backends, the structured failures it
// produces, and the supervised master-worker skeleton that survives
// worker death.
type (
	// FaultPlan is a complete seed-driven fault schedule (panics at
	// spark/process indices, per-edge message drop/delay, stalled PEs).
	FaultPlan = faults.Plan
	// FaultInjector applies a FaultPlan to a run via Config.Faults.
	FaultInjector = faults.Injector
	// InjectedPanic is the structured failure of a plan-requested panic.
	InjectedPanic = faults.InjectedPanic
	// DeadlockError is what the Config.Deadline watchdog returns instead
	// of hanging: per-PE blocked-on diagnostics (channel, peer, thread).
	DeadlockError = faults.DeadlockError
	// BlockedThread is one DeadlockError diagnostic line.
	BlockedThread = faults.BlockedThread
	// PoisonError marks a thunk poisoned by a dying thread — the
	// structured failure blocked helpers unblock into.
	PoisonError = graph.PoisonError
	// EdenChanMisuseError is the structured channel-misuse failure of
	// the native Eden backend (cross-PE Receive, double Receive,
	// unknown channel or stream).
	EdenChanMisuseError = eden.ChanMisuseError
	// WorkerFailuresError is SupervisedMW's structured give-up: the
	// retry budget or worker pool is exhausted with tasks still lost.
	WorkerFailuresError = skel.WorkerFailuresError
	// ThreadFailure describes one dead supervised thread (PE, name,
	// rendered error) as delivered on its verdict channel.
	ThreadFailure = pe.ThreadFailure
)

var (
	// ParseFaults reads a fault spec in the -faults flag grammar
	// (seed=N,panic-spark=K,drop=P@S-D,delay=DUR:P,stall=PE:DUR).
	ParseFaults = faults.Parse
	// NewFaultInjector arms a parsed plan for Config.Faults; a nil plan
	// yields an armed-but-empty injector (for overhead measurement).
	NewFaultInjector = faults.NewInjector
	// SupervisedMW is MasterWorker with monitored workers: a dead
	// worker's outstanding tasks are re-dispatched to survivors under a
	// capped retry budget. On backends without supervision primitives
	// it degrades to plain MasterWorker.
	SupervisedMW = skel.SupervisedMW
)

// Resident runtimes: the native backends as long-lived services —
// workers, deques and arenas built once, programs submitted as
// isolated jobs (own result cell, deadline, fault budget, counters).
type (
	// NativePool is the resident form of the native work-stealing
	// runtime; Submit starts jobs, Snapshot reads monotone counters.
	NativePool = native.Pool
	// NativeJobConfig scopes one pool job (deadline, fault budget,
	// private eventlog).
	NativeJobConfig = native.JobConfig
	// NativeJobResult is one pool job's outcome.
	NativeJobResult = native.JobResult
	// NativeJobHandle waits on a submitted pool job.
	NativeJobHandle = native.JobHandle
	// EdenNativeResident is a resident Eden lane: persistent PEs,
	// per-job RTS (failure latch, watchdog, channel-id space).
	EdenNativeResident = nativeeden.Resident
	// EdenNativeJobConfig scopes one lane job.
	EdenNativeJobConfig = nativeeden.JobConfig
)

// Resident entry points.
var (
	// NewNativePool starts a resident work-stealing pool.
	NewNativePool = native.NewPool
	// NewEdenNativeResident builds a resident Eden lane.
	NewEdenNativeResident = nativeeden.NewResident
)

// Cluster: the multi-process Eden runtime — worker OS processes over a
// framed socket protocol (tcp or unix), with a self-healing control
// plane: heartbeat liveness, bounded per-rank send queues, link
// reconnection with seq/ack replay, and a supervisor that respawns the
// whole SPMD run under a restart budget with exponential backoff.
type (
	// ClusterConfig describes one multi-process run (processes, PEs per
	// process, transport, workload spec, faults, recovery knobs).
	ClusterConfig = cluster.Config
	// ClusterResult is the coordinator's folded outcome: the root value,
	// per-PE counters, the merged timeline and the recovery telemetry
	// (restarts, reconnects, per-rank dropped frames, heartbeat RTT).
	ClusterResult = cluster.Result
	// ClusterRestart is the supervision policy ClusterRunSupervised
	// applies (max attempts, backoff, cap, deadlock retry).
	ClusterRestart = cluster.Restart
	// ClusterAttempt is one failed attempt on the restart history.
	ClusterAttempt = cluster.Attempt
	// ClusterRestartsExhaustedError is the supervisor's structured
	// give-up: the full attempt history, unwrapping to the last death.
	ClusterRestartsExhaustedError = cluster.RestartsExhaustedError
	// ProcessDeathError is the structured failure of a worker process
	// that died or went silent (rank, unreachable PEs, reason).
	ProcessDeathError = faults.ProcessDeathError
)

// Cluster entry points.
var (
	// ClusterRun executes one multi-process run (no supervision).
	ClusterRun = cluster.Run
	// ClusterRunSupervised retries worker deaths under Config.Restart.
	ClusterRunSupervised = cluster.RunSupervised
	// ClusterMaybeWorker diverts a process re-executed as a cluster
	// worker; call it first in main() of any binary that starts clusters.
	ClusterMaybeWorker = cluster.MaybeWorker
	// ClusterBuildProgram resolves a workload spec string to the program
	// and its oracle — what the coordinator and every worker run.
	ClusterBuildProgram = cluster.BuildProgram
)

// Serve: the resident compute service over both native backends —
// admission control, bounded per-tenant queues, round-robin dispatch,
// a structured error taxonomy and an HTTP/JSON gateway (cmd/serve).
type (
	// ServeConfig sizes the service (workers, lanes, queue bounds).
	ServeConfig = serve.Config
	// ServeServer is the service; Do submits synchronously, Handler
	// wraps it in the HTTP gateway, Close drains gracefully.
	ServeServer = serve.Server
	// ServeJobRequest / ServeJobResponse are the wire job forms.
	ServeJobRequest  = serve.JobRequest
	ServeJobResponse = serve.JobResponse
	// ServeErrorCode is the service's stable failure vocabulary.
	ServeErrorCode = serve.ErrorCode
	// ServeStatus is one /statusz snapshot.
	ServeStatus = serve.Status
)

// Serve entry points.
var (
	// NewServeServer starts the resident service.
	NewServeServer = serve.New
	// ClassifyServeError maps any job error to its taxonomy code and
	// HTTP status.
	ClassifyServeError = serve.Classify

	// The admission sentinels, so callers can errors.Is against
	// responses from Do (Classify understands wrapped forms too).
	ServeErrQueueFull       = serve.ErrQueueFull
	ServeErrDraining        = serve.ErrDraining
	ServeErrUnknownWorkload = serve.ErrUnknownWorkload
	ServeErrBadRequest      = serve.ErrBadRequest
)

// Telemetry: the lock-free metrics plane the resident runtimes and the
// service record into (per-worker sharded counters, log-bucketed
// latency histograms, Prometheus text exposition) and the per-job trace
// dump the service stores for timeline rendering.
type (
	// MetricsRegistry holds named series; pass one via NativeConfig,
	// EdenNativeConfig or get the service's with ServeServer.Metrics.
	MetricsRegistry = metrics.Registry
	// MetricsCounter is a monotone sharded counter.
	MetricsCounter = metrics.Counter
	// MetricsGauge is a last-value-wins gauge.
	MetricsGauge = metrics.Gauge
	// MetricsHistogram is a log-bucketed latency histogram whose
	// snapshots merge and answer quantiles within 1/16 relative error.
	MetricsHistogram = metrics.Histogram
	// MetricsHistSnapshot is one histogram's mergeable snapshot.
	MetricsHistSnapshot = metrics.HistSnapshot
	// EventlogDump is the wire form of one job's drained event rings
	// (GET /api/v1/trace; tracedump -job renders it).
	EventlogDump = eventlog.Dump
)

// Telemetry entry points.
var (
	// NewMetricsRegistry creates an empty registry.
	NewMetricsRegistry = metrics.New
	// ParseProm parses a Prometheus text exposition back into a flat
	// series map (the scrape-side inverse of the registry's writer).
	ParseProm = metrics.ParseProm
)

// Idle backoff: the fixed idle-wait policy a native pool's workers
// follow when they find no spark (NativeConfig.Backoff).
type (
	// TuneBackoff is the idle-wait policy: a spin budget, a doubling
	// sleep ladder up to a cap, and an optional park threshold.
	TuneBackoff = tune.Backoff
)

// Idle-backoff entry points.
var (
	// ParseBackoff parses a CLI backoff spec such as
	// "spin=64,min=10us,max=1280us,park=8".
	ParseBackoff = tune.ParseBackoff
	// DefaultBackoffPolicy is the fixed legacy ladder (no parking).
	DefaultBackoffPolicy = tune.DefaultBackoffPolicy
)

// CostModel holds every virtual-time cost constant of the simulation.
type CostModel = cost.Model

// DefaultCosts returns the calibrated default cost model.
var DefaultCosts = cost.Default
