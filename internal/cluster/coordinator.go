package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parhask/internal/eden/wire"
	"parhask/internal/eventlog"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/nativeeden"
)

// Config describes one cluster run the coordinator drives.
type Config struct {
	// Procs is the number of worker processes; PerProc the PEs each
	// hosts, so the program sees Procs*PerProc PEs.
	Procs   int
	PerProc int
	// Transport selects the socket family of every link, the control
	// links to the coordinator and the data links between workers alike:
	// "tcp" (loopback) or "unix".
	Transport string
	// Spec names the workload (see BuildProgram).
	Spec string
	// Faults is an optional faults.Parse spec shipped to every worker;
	// its kill-rank/sever-rank/wedge-rank clauses are the
	// cluster-level fault classes (the targeted worker applies them to
	// itself).
	Faults string
	// EventLog makes every worker record per-PE timelines; the folded
	// Dump lands in Result.Timeline.
	EventLog bool
	// Deadline bounds the whole run. The coordinator owns deadlock
	// detection — a worker blocked on remote messages cannot tell a slow
	// peer from a dead cluster — so expiry kills the workers and fails
	// with a structured *faults.DeadlockError. Zero means a minute.
	Deadline time.Duration
	// Restarts is how many times Run may restart the whole SPMD run
	// after a process death, so the run executes at most Restarts+1
	// times (see supervise.go); 0 is a single attempt.
	Restarts int
}

// The liveness timings: the coordinator pings every rank each
// heartbeatEvery, and a rank silent for heartbeatTimeout (four beats)
// dies with reason "heartbeat timeout".
const (
	heartbeatEvery   = 500 * time.Millisecond
	heartbeatTimeout = 4 * heartbeatEvery
	terminateGrace   = 2 * time.Second
	// exitWait bounds how long a rank's link end waits for its exit
	// before the death is named (see rankEnded), and so how much later a
	// severed link whose worker does not give up is reported.
	exitWait = 250 * time.Millisecond
)

// Validate is the fail-fast check the CLIs run on flag parse: it
// rejects a nonsensical topology, an unknown transport, a workload
// spec that does not parse or whose Eden topology does not fit, and an
// unparseable fault plan — before any process is launched or any input
// generated.
func (cfg *Config) Validate() error {
	if cfg.Procs < 1 {
		return fmt.Errorf("cluster: need at least 1 process, have %d", cfg.Procs)
	}
	if cfg.PerProc < 1 {
		return fmt.Errorf("cluster: need at least 1 PE per process, have %d", cfg.PerProc)
	}
	if cfg.Transport != "tcp" && cfg.Transport != "unix" {
		return fmt.Errorf("cluster: unknown transport %q (want tcp or unix)", cfg.Transport)
	}
	if cfg.Restarts < 0 {
		return fmt.Errorf("cluster: negative restart budget %d", cfg.Restarts)
	}
	if _, err := specInstance(cfg.Spec); err != nil {
		return err
	}
	if _, err := faults.Parse(cfg.Faults); err != nil {
		return err
	}
	return nil
}

// Result is the folded outcome of a cluster run.
type Result struct {
	// Value is the root process's result, decoded from rank 0's wire
	// bytes.
	Value graph.Value
	// WallNS is rank 0's run wall time (the root's own measurement);
	// CoordNS the coordinator's, including launch and drain.
	WallNS  int64
	CoordNS int64
	Procs   int
	PerProc int
	// Total and PerPE fold every rank's counters; PerPE is indexed by
	// global PE.
	Total nativeeden.Stats
	PerPE []nativeeden.PEStats
	GC    nativeeden.GCStats
	// Reports are the per-rank summaries as the workers sent them.
	Reports []nativeeden.Report
	// Timeline is the merged per-PE event dump (nil unless EventLog).
	Timeline *eventlog.Dump
	// Restarts counts full-run retries Run performed before
	// this (successful) result; Attempts is their history.
	Restarts int
	Attempts []Attempt
	// RecoveryNS is the recovery latency of a supervised run: first
	// failure detection to final success. Zero when no restart
	// happened.
	RecoveryNS int64
	// Reconnects is always 0: a broken link is a death, recovered only
	// by a restart; kept in the -stats json key set.
	Reconnects int
	// DroppedFrames counts, per destination rank, frames discarded
	// because the destination was already gone — a lossy run is visible
	// even when it succeeds (a rank that reported and left may still be
	// sent to by stragglers). Data frames are counted by the worker that
	// sent them, control frames by the coordinator.
	DroppedFrames []int64
	// HeartbeatRTTNS is the worst ping round trip observed.
	HeartbeatRTTNS int64
	// GOMAXPROCS is, per rank, the GOMAXPROCS its worker ran with (0
	// for a rank that never reported).
	GOMAXPROCS []int
}

// pesOf lists the global PEs rank owns — the unreachable set a
// ProcessDeathError reports.
func pesOf(rank, perProc int) []int {
	pes := make([]int, perProc)
	for i := range pes {
		pes[i] = rank*perProc + i
	}
	return pes
}

// rankLink is the coordinator's half of one worker link: the conn
// (nil once closed) and what the heartbeat and the state machine know
// of the rank.
type rankLink struct {
	rank int

	mu sync.Mutex
	c  *conn

	done     atomic.Bool  // rank has reported; frames to it now drop
	lastSeen atomic.Int64 // unix nanos of the last frame from this rank
	drops    atomic.Int64 // control frames discarded (closed or done destination)
	rttNS    atomic.Int64 // worst heartbeat round trip
}

// send writes one control frame on the conn, if it is still open, and
// reports whether it went out. A failed write is a broken link, which
// the conn's reader reports. The write cannot block for long: the
// coordinator sends a rank GO, at most one DRAIN and one ACK, and a
// PING per heartbeat, and a rank that stops reading is declared dead
// after four missed pings — a few dozen bytes, far below any socket
// buffer.
func (l *rankLink) send(kind byte, body []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c != nil && l.c.write(kind, body) == nil
}

// close closes the conn; later sends fail.
func (l *rankLink) close() {
	l.mu.Lock()
	if l.c != nil {
		l.c.Close()
		l.c = nil
	}
	l.mu.Unlock()
}

// event is one occurrence the readers, process waiters and heartbeat
// feed the coordinator's state machine.
type event struct {
	rank int
	kind byte // frame kind, 0 for non-frame events
	body []byte
	err  error

	exit      bool // process exit (err is its wait status)
	readerEnd bool // connection reader finished (err says why; nil after a BYE)
	hbTimeout bool // heartbeat staleness observed
}

// coord is one run's coordinator state. The fields from start on belong
// to the state machine (step) and are touched by Run's goroutine only.
type coord struct {
	cfg   Config
	links []*rankLink
	evCh  chan event
	stop  chan struct{}
	wg    sync.WaitGroup

	start    time.Time // GO sent
	res      *Result
	reports  []*workerReport
	nReports int
	exited   int
}

// newCoord sets up one run's coordinator: its links, none connected
// yet, and the state machine at rest.
func newCoord(cfg Config) *coord {
	n := cfg.Procs
	cd := &coord{
		cfg:     cfg,
		links:   make([]*rankLink, n),
		evCh:    make(chan event, n*8+16), // a burst from every rank seldom waits
		stop:    make(chan struct{}),
		res:     &Result{Procs: n, PerProc: cfg.PerProc},
		reports: make([]*workerReport, n),
	}
	for rank := range cd.links {
		cd.links[rank] = &rankLink{rank: rank}
	}
	return cd
}

// spawn runs f on a goroutine the run's shutdown waits for, so Run
// returns with every socket of its links closed rather than closing.
func (cd *coord) spawn(f func()) {
	cd.wg.Add(1)
	go func() {
		defer cd.wg.Done()
		f()
	}()
}

// emit hands ev to the state machine and reports whether it did: false
// once the run is over.
func (cd *coord) emit(ev event) bool {
	select {
	case cd.evCh <- ev:
		return true
	case <-cd.stop:
		return false
	}
}

// readLoop pumps one rank's control connection: pongs feed the
// liveness state, a BYE is answered with an ACK, other control frames
// go to the state machine, and the connection's end is reported. Data
// frames travel between the workers directly; one arriving here is a
// protocol violation, which ends the connection.
func (cd *coord) readLoop(l *rankLink, c *conn) {
	for {
		// A fresh buffer per frame: a body handed to the state machine
		// outlives this loop iteration.
		kind, body, err := c.read(nil)
		if err == nil && kind == frameData {
			c.Close()
			err = errDataOnControl(l.rank)
		}
		if err != nil {
			cd.emit(event{rank: l.rank, readerEnd: true, err: err})
			return
		}
		l.lastSeen.Store(time.Now().UnixNano())
		switch kind {
		case framePong:
			if nanos, perr := decodePing(body); perr == nil {
				if rtt := time.Now().UnixNano() - nanos; rtt > l.rttNS.Load() {
					l.rttNS.Store(rtt)
				}
			}
		case frameBye:
			// The REPORT before it is already on its way to the state
			// machine, ahead of the exit this ACK lets happen.
			_ = c.write(frameAck, nil)
			cd.emit(event{rank: l.rank, readerEnd: true})
			return
		default:
			cd.emit(event{rank: l.rank, kind: kind, body: body})
		}
	}
}

// heartbeat pings every rank that has not reported and reports
// staleness. A stale lastSeen is detected here regardless of whether
// the ping itself got through — a wedged worker is silent, and silence
// is the signal.
func (cd *coord) heartbeat() {
	t := time.NewTicker(heartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-cd.stop:
			return
		case <-t.C:
			now := time.Now().UnixNano()
			for _, l := range cd.links {
				if l.done.Load() {
					continue
				}
				if now-l.lastSeen.Load() > heartbeatTimeout.Nanoseconds() {
					cd.emit(event{rank: l.rank, hbTimeout: true})
					continue
				}
				l.send(framePing, encodePing(now))
			}
		}
	}
}

// runAttempt is one attempt of Run: attempt is its index, which the
// workers use to rotate the fault seed and to skip one-shot rank
// faults after the first.
func runAttempt(cfg Config, attempt int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	deadline := cfg.Deadline
	if deadline <= 0 {
		deadline = time.Minute
	}
	cd := newCoord(cfg)

	// Listen before launching so workers have something to dial.
	var ln net.Listener
	var addr string
	switch cfg.Transport {
	case "tcp":
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
		addr = ln.Addr().String()
	case "unix":
		dir, err := os.MkdirTemp("", "parhask-cluster-")
		if err != nil {
			return nil, fmt.Errorf("cluster: socket dir: %w", err)
		}
		defer os.RemoveAll(dir)
		addr = filepath.Join(dir, "coord.sock")
		ln, err = net.Listen("unix", addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: listen: %w", err)
		}
	}

	// Shutdown order matters (defers are LIFO): workers are terminated
	// gracefully FIRST, while their links are still open, so draining
	// workers can flush reports; then the links and the listener die and
	// every helper goroutine unwinds.
	defer func() {
		close(cd.stop)
		for _, l := range cd.links {
			l.close()
		}
		ln.Close()
		cd.wg.Wait()
	}()

	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cluster: resolving own binary: %w", err)
	}
	ends, err := dialMesh(ln, cfg.Procs)
	if err != nil {
		return nil, err
	}
	share := workerProcs(runtime.GOMAXPROCS(0), cfg.Procs, cfg.PerProc)
	cmds := make([]*exec.Cmd, cfg.Procs)
	for rank := range cmds {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("GOMAXPROCS=%d", share), // overrides an inherited one: the last entry wins
			fmt.Sprintf("%s=%d", envRank, rank),
			fmt.Sprintf("%s=%d", envProcs, cfg.Procs),
			fmt.Sprintf("%s=%d", envPerProc, cfg.PerProc),
			fmt.Sprintf("%s=%s", envAddr, addr),
			fmt.Sprintf("%s=%s", envTransport, cfg.Transport),
			fmt.Sprintf("%s=%s", envSpec, cfg.Spec),
			fmt.Sprintf("%s=%s", envFaults, cfg.Faults),
			fmt.Sprintf("%s=%s", envEventLog, boolEnv(cfg.EventLog)),
			fmt.Sprintf("%s=%d", envAttempt, attempt),
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = ends[rank]
		if err := cmd.Start(); err != nil {
			closeMesh(ends)
			terminateAll(cmds, 0)
			return nil, fmt.Errorf("cluster: launching rank %d: %w", rank, err)
		}
		cmds[rank] = cmd
	}
	// Every worker holds its own ends now. Ours must go, so that a
	// worker's exit closes its links and its peers read EOF.
	closeMesh(ends)
	defer terminateAll(cmds, terminateGrace)

	if err := cd.gather(ln, deadline); err != nil {
		return nil, err
	}

	// GO is the first frame on every link, and the readers start after
	// it, so a worker's early frames just wait in socket buffers.
	cd.start = time.Now()
	for _, l := range cd.links {
		if err := l.c.write(frameGo, nil); err != nil {
			return nil, fmt.Errorf("cluster: starting workers: %w", err)
		}
	}

	now := time.Now().UnixNano()
	for _, l := range cd.links {
		l.lastSeen.Store(now)
		c := l.c
		cd.spawn(func() { cd.readLoop(l, c) })
	}
	cd.spawn(cd.heartbeat)
	for rank, cmd := range cmds {
		cd.spawn(func() { cd.emit(event{rank: rank, exit: true, err: cmd.Wait()}) })
	}

	// The state machine: wait for rank 0's result, drain, collect every
	// rank's report. The deadline backstops a wedged cluster.
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	var runErr error
	for runErr == nil && cd.nReports < cfg.Procs {
		select {
		case <-timer.C:
			runErr = &faults.DeadlockError{Backend: "cluster", Reason: "deadline", Elapsed: time.Since(cd.start)}
		case ev := <-cd.evCh:
			runErr = cd.step(ev)
		}
	}
	res := cd.res
	res.CoordNS = time.Since(cd.start).Nanoseconds()
	foldReports(res, cd.reports)
	for rank, l := range cd.links {
		res.DroppedFrames[rank] += l.drops.Load()
		if rtt := l.rttNS.Load(); rtt > res.HeartbeatRTTNS {
			res.HeartbeatRTTNS = rtt
		}
	}
	if runErr != nil {
		return res, runErr
	}

	// Clean shutdown: give the drained workers a moment to exit; the
	// deferred terminate sweeps up anything left (TERM, then KILL).
	grace := time.NewTimer(10 * time.Second)
	defer grace.Stop()
	for cd.exited < cfg.Procs {
		select {
		case ev := <-cd.evCh:
			if ev.exit {
				cd.exited++
			}
		case <-grace.C:
			return res, nil
		}
	}
	return res, nil
}

// step applies one event to the run. A non-nil error ends the run: an
// exit, a broken link or a silence before a rank has reported is that
// rank's death.
func (cd *coord) step(ev event) error {
	l := cd.links[ev.rank]
	reported := cd.reports[ev.rank] != nil
	switch {
	case ev.exit:
		cd.exited++
		if !reported {
			return cd.rankEnded(ev)
		}
	case ev.readerEnd:
		l.close()
		if !reported {
			return cd.rankEnded(ev)
		}
	case ev.hbTimeout:
		if reported {
			return nil
		}
		silent := time.Duration(time.Now().UnixNano() - l.lastSeen.Load())
		if silent < heartbeatTimeout {
			return nil // a frame arrived since the tick
		}
		return cd.died(ev.rank, "heartbeat timeout", fmt.Errorf("silent for %v", silent))
	case ev.kind == frameResult:
		v, err := wire.Decode(ev.body)
		if err != nil {
			return fmt.Errorf("cluster: decoding rank 0 result: %w", err)
		}
		cd.res.Value = v
		// The result is in: drain the other ranks so they unwind and
		// report. A DRAIN to a rank that has reported, or whose link is
		// closed, is a drop.
		for _, o := range cd.links[1:] {
			if o.done.Load() || !o.send(frameDrain, nil) {
				o.drops.Add(1)
			}
		}
	case ev.kind == frameError:
		return decodeWorkerError(ev.rank, ev.body)
	case ev.kind == frameReport:
		var rep workerReport
		if err := json.Unmarshal(ev.body, &rep); err != nil {
			return fmt.Errorf("cluster: rank %d report: %w", ev.rank, err)
		}
		cd.reports[ev.rank] = &rep
		cd.nReports++
		l.done.Store(true)
	}
	return nil
}

// rankEnded names the death of a rank whose process exit or link end
// (ev) came before its report. A killed or crashed worker's link
// closes as it exits, and the link's EOF usually reaches the state
// machine first, so a link's end waits up to exitWait for the exit.
// The exit status says what ended the rank: failExitCode is a worker
// that gave up once its link broke, a "connection" death like a link
// whose process outlives exitWait; any other status is the process's
// own end, an "exit" death.
func (cd *coord) rankEnded(ev event) error {
	link := ev
	if ev.readerEnd {
		ev = cd.awaitExit(ev.rank)
	}
	switch {
	case ev.exit && !gaveUp(ev.err):
		return cd.died(link.rank, "exit", ev.err)
	case link.readerEnd && link.err != nil && link.err != io.EOF:
		return cd.died(link.rank, "connection error", link.err)
	}
	return cd.died(link.rank, "connection closed", link.err)
}

// awaitExit waits up to exitWait for rank's exit event and returns it,
// or the zero event if the process is still running. Every other event
// is dropped: the run ends with this rank's death either way.
func (cd *coord) awaitExit(rank int) event {
	t := time.NewTimer(exitWait)
	defer t.Stop()
	for {
		select {
		case ev := <-cd.evCh:
			if ev.exit && ev.rank == rank {
				return ev
			}
		case <-t.C:
			return event{}
		}
	}
}

// gaveUp reports whether a worker's wait status is failExitCode.
func gaveUp(exit error) bool {
	var ee *exec.ExitError
	return errors.As(exit, &ee) && ee.ExitCode() == failExitCode
}

func (cd *coord) died(rank int, reason string, err error) *faults.ProcessDeathError {
	return &faults.ProcessDeathError{
		Rank: rank, PEs: pesOf(rank, cd.cfg.PerProc), Reason: reason, Err: err,
	}
}

// workerProcs is the GOMAXPROCS each of procs workers is started with:
// its share of the coordinator's own budget, at least 1 and at most
// perProc. In the paper each Eden PE is a sequential runtime on a core
// of its own; a worker sized to the whole host would instead make the
// cluster run procs+1 times as many Ps as there are cores, and its
// cross-process hops would wait for CPU rather than for work. No worker
// gets more Ps than PEs because a PE is a lock that runs one thread at a
// time. The budget is runtime.GOMAXPROCS(0), so a user's GOMAXPROCS
// still counts: it sets what is split.
func workerProcs(budget, procs, perProc int) int {
	return max(1, min(perProc, budget/procs))
}

// dialMesh links every pair of ranks with one connection of the run's
// transport. It dials ln and accepts each connection before any worker
// is launched, so nothing else can be accepted in between, and tcp and
// unix share this one path. ends[r][k] is rank r's end of its link to
// the k-th other rank in rank order, a file its worker inherits as fd
// 3+k (see inheritedPeers). The sockets themselves are closed; only the
// files stay open, for the caller to hand over and close.
func dialMesh(ln net.Listener, procs int) ([][]*os.File, error) {
	ends := make([][]*os.File, procs)
	for a := 0; a < procs; a++ {
		for b := a + 1; b < procs; b++ {
			fa, fb, err := dialPair(ln)
			if err != nil {
				closeMesh(ends)
				return nil, fmt.Errorf("cluster: linking ranks %d and %d: %w", a, b, err)
			}
			ends[a] = append(ends[a], fa)
			ends[b] = append(ends[b], fb)
		}
	}
	return ends, nil
}

// dialPair connects to ln and accepts the connection, returning both
// ends as files.
func dialPair(ln net.Listener) (*os.File, *os.File, error) {
	type filer interface{ File() (*os.File, error) }
	d, err := net.Dial(ln.Addr().Network(), ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()
	a, err := ln.Accept()
	if err != nil {
		return nil, nil, err
	}
	defer a.Close()
	fd, err := d.(filer).File()
	if err != nil {
		return nil, nil, err
	}
	fa, err := a.(filer).File()
	if err != nil {
		fd.Close()
		return nil, nil, err
	}
	return fd, fa, nil
}

func closeMesh(ends [][]*os.File) {
	for _, fs := range ends {
		for _, f := range fs {
			f.Close()
		}
	}
}

// gather accepts exactly Procs control connections, binds each to
// the rank its HELLO names, and closes the listener: no rank dials it
// again. Accepts and HELLO reads share the one deadline.
func (cd *coord) gather(ln net.Listener, deadline time.Duration) error {
	defer ln.Close()
	by := time.Now().Add(deadline)
	if err := ln.(interface{ SetDeadline(time.Time) error }).SetDeadline(by); err != nil {
		return fmt.Errorf("cluster: listener deadline: %w", err)
	}
	for joined := 0; joined < cd.cfg.Procs; joined++ {
		nc, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: waiting for workers (%d/%d connected): %w", joined, cd.cfg.Procs, err)
		}
		_ = nc.SetReadDeadline(by)
		c := newConn(nc)
		kind, body, err := c.read(nil)
		if err != nil || kind != frameHello {
			nc.Close()
			return fmt.Errorf("cluster: bad hello (kind %d): %v", kind, err)
		}
		rank, err := decodeHello(body)
		if err != nil || rank < 0 || rank >= cd.cfg.Procs {
			nc.Close()
			return fmt.Errorf("cluster: hello from invalid rank %d: %v", rank, err)
		}
		_ = nc.SetReadDeadline(time.Time{})
		l := cd.links[rank]
		if l.c != nil {
			nc.Close()
			return fmt.Errorf("cluster: hello from duplicate rank %d", rank)
		}
		l.c = c
	}
	return nil
}

func boolEnv(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// terminateAll shuts down every still-running worker gracefully:
// SIGTERM first (a draining worker flushes its report and eventlog),
// a probe loop until everything is reaped or the grace runs out, then
// SIGKILL as the backstop. The Wait goroutines own reaping, so
// liveness is probed with the null signal.
func terminateAll(cmds []*exec.Cmd, grace time.Duration) {
	live := func() []*exec.Cmd {
		var out []*exec.Cmd
		for _, cmd := range cmds {
			if cmd != nil && cmd.Process != nil && cmd.Process.Signal(syscall.Signal(0)) == nil {
				out = append(out, cmd)
			}
		}
		return out
	}
	remaining := live()
	if len(remaining) == 0 {
		return
	}
	for _, cmd := range remaining {
		_ = cmd.Process.Signal(syscall.SIGTERM)
	}
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if remaining = live(); len(remaining) == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, cmd := range remaining {
		_ = cmd.Process.Kill()
	}
}

// foldReports merges the per-rank reports into the global view: each
// rank owns its PE slots, totals sum, and timelines concatenate in
// global PE order.
func foldReports(res *Result, reports []*workerReport) {
	res.PerPE = make([]nativeeden.PEStats, res.Procs*res.PerProc)
	res.Reports = make([]nativeeden.Report, res.Procs)
	res.GOMAXPROCS = make([]int, res.Procs)
	res.DroppedFrames = make([]int64, res.Procs)
	var dumps []*eventlog.Dump
	for rank, rep := range reports {
		if rep == nil {
			continue
		}
		res.Reports[rank] = rep.Report
		res.GOMAXPROCS[rank] = rep.GOMAXPROCS
		for dst, n := range rep.Dropped {
			if dst < res.Procs {
				res.DroppedFrames[dst] += n
			}
		}
		for i := 0; i < res.PerProc; i++ {
			g := rank*res.PerProc + i
			if g < len(rep.Report.PerPE) {
				res.PerPE[g] = rep.Report.PerPE[g]
			}
		}
		res.Total.Messages += rep.Report.Total.Messages
		res.Total.BytesSent += rep.Report.Total.BytesSent
		res.Total.Processes += rep.Report.Total.Processes
		res.Total.ThreadsCreated += rep.Report.Total.ThreadsCreated
		res.GC.Add(rep.Report.GC)
		if rank == 0 {
			res.WallNS = rep.Report.WallNS
		}
		if rep.Dump != nil {
			dumps = append(dumps, rep.Dump)
		}
	}
	res.Timeline = mergeDumps(dumps)
}

// mergeDumps concatenates per-rank timeline dumps (already in rank
// order, agents named by global PE) into one cluster-wide dump.
func mergeDumps(dumps []*eventlog.Dump) *eventlog.Dump {
	if len(dumps) == 0 {
		return nil
	}
	out := &eventlog.Dump{Backend: "cluster"}
	for _, d := range dumps {
		out.Agents = append(out.Agents, d.Agents...)
		out.Events = append(out.Events, d.Events...)
		out.Dropped += d.Dropped
		if d.WallNS > out.WallNS {
			out.WallNS = d.WallNS
		}
	}
	return out
}
