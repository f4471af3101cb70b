package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parhask/internal/eden/wire"
	"parhask/internal/eventlog"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/metrics"
	"parhask/internal/nativeeden"
)

// Config describes one cluster run the coordinator drives.
type Config struct {
	// Procs is the number of worker processes; PerProc the PEs each
	// hosts, so the program sees Procs*PerProc PEs.
	Procs   int
	PerProc int
	// Transport selects the wire: "tcp" (loopback) or "unix".
	Transport string
	// Spec names the workload (see BuildProgram).
	Spec string
	// Faults is an optional faults.Parse spec shipped to every worker;
	// its kill-rank/sever-rank/flap-rank/wedge-rank clauses are the
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
	// Restart, when non-nil, lets RunSupervised retry the whole SPMD
	// run after a process death (see supervise.go). Run ignores it.
	Restart *Restart
	// Heartbeat is the liveness ping interval; a rank silent for four
	// intervals dies with reason "heartbeat timeout". Zero means 500ms.
	Heartbeat time.Duration
	// ReconnectWindow is how long a rank whose link broke may redial
	// and resume in place before the break is declared a death. Zero
	// means 3s; negative disables reconnection entirely.
	ReconnectWindow time.Duration
	// QueueDepth bounds each rank's outbound frame queue and retransmit
	// buffer; overflow is a structured backpressure death, never a
	// wedged coordinator. Zero means 1024.
	QueueDepth int
	// Metrics, when non-nil, receives the recovery counters
	// (cluster_restarts_total, cluster_reconnects_total,
	// cluster_dropped_frames_total) and the recovery-latency histogram.
	Metrics *metrics.Registry
	// Stderr receives the workers' stderr (defaults to os.Stderr).
	Stderr io.Writer
}

// Defaults for the liveness and recovery knobs.
const (
	defaultHeartbeat       = 500 * time.Millisecond
	heartbeatMissFactor    = 4
	defaultReconnectWindow = 3 * time.Second
	defaultQueueDepth      = 1024
	terminateGrace         = 2 * time.Second
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
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("cluster: negative queue depth %d", cfg.QueueDepth)
	}
	if cfg.Restart != nil && cfg.Restart.Max < 0 {
		return fmt.Errorf("cluster: negative restart budget %d", cfg.Restart.Max)
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
	// Runs that rode out link outages gain a synthetic "coord" lane
	// whose block events bracket each outage window.
	Timeline *eventlog.Dump
	// Restarts counts full-run retries RunSupervised performed before
	// this (successful) result; Attempts is their history.
	Restarts int
	Attempts []Attempt
	// RecoveryNS is the recovery latency of a supervised run: first
	// failure detection to final success. Zero when no restart
	// happened.
	RecoveryNS int64
	// Reconnects counts in-place link recoveries (worker redials
	// accepted mid-run); ReconnectNS is the total wall time links
	// spent down before healing.
	Reconnects  int
	ReconnectNS int64
	// DroppedFrames counts, per destination rank, routed frames
	// discarded because the destination was already gone — a lossy run
	// is visible even when it succeeds (a rank that reported and left
	// may still be routed to by stragglers).
	DroppedFrames []int64
	// HeartbeatRTTNS is the worst ping round trip observed.
	HeartbeatRTTNS int64
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

// outFrame is one queued outbound frame; the writer stamps the
// sequence number at send time.
type outFrame struct {
	kind byte
	body []byte
}

// rankLink is the coordinator's half of one worker link: the live
// conn (nil while the rank is down), the bounded outbound queue its
// writer goroutine drains, and the seq/ack state that makes a
// reconnect lossless.
type rankLink struct {
	rank int

	mu       sync.Mutex
	cond     *sync.Cond
	c        *conn
	gen      int // bumped per (re)connect; readers and timers carry it
	dead     bool
	sendSeq  uint32
	unacked  []savedFrame
	lastRecv uint32

	out chan outFrame

	up       atomic.Bool  // link currently connected
	done     atomic.Bool  // rank has reported; frames to it now drop
	lastSeen atomic.Int64 // unix nanos of the last frame from this rank
	drops    atomic.Int64 // routed frames discarded (dead/done destination)
	rttNS    atomic.Int64 // worst heartbeat round trip
}

func (l *rankLink) curGen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

func (l *rankLink) isDead() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dead
}

// accept applies receive-side sequencing (see wlink.accept).
func (l *rankLink) accept(seq uint32) (process, ackNow bool, err error) {
	if seq == 0 {
		return true, false, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case seq <= l.lastRecv:
		return false, false, nil
	case seq != l.lastRecv+1:
		return false, false, fmt.Errorf("cluster: rank %d: sequence gap (frame %d after %d)", l.rank, seq, l.lastRecv)
	}
	l.lastRecv = seq
	return true, l.lastRecv%ackEvery == 0, nil
}

func (l *rankLink) ackSent(seq uint32) {
	l.mu.Lock()
	l.unacked = trimAcked(l.unacked, seq)
	l.mu.Unlock()
}

func (l *rankLink) recvCursor() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastRecv
}

// kill marks the link terminally dead and wakes its writer.
func (l *rankLink) kill() {
	l.mu.Lock()
	l.dead = true
	if l.c != nil {
		l.c.Close()
		l.c = nil
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	l.up.Store(false)
}

// event is one occurrence the readers, writers, process waiters,
// accept loop and timers feed the coordinator's state machine.
type event struct {
	rank int
	gen  int  // connection generation, for ignoring stale reports
	kind byte // frame kind, 0 for non-frame events
	body []byte
	err  error

	exit         bool  // process exit (err is its wait status)
	readerEnd    bool  // connection reader finished (err says why)
	graceful     bool  // readerEnd via a clean BYE
	reHello      *conn // reconnect HELLO accepted by the listener
	helloRecv    uint32
	winExpired   bool // reconnect window ran out
	hbTimeout    bool // heartbeat staleness observed
	backpressure bool // outbound queue or retransmit buffer overflow
}

// coord is one run's coordinator state shared by its goroutines.
type coord struct {
	cfg       Config
	procs     int
	perProc   int
	links     []*rankLink
	evCh      chan event
	stop      chan struct{}
	hb        time.Duration
	hbTimeout time.Duration
	window    time.Duration // reconnect window; <0 disables
	depth     int

	mReconnects *metrics.Counter
	mDrops      *metrics.Counter
}

func (cd *coord) emit(ev event) {
	select {
	case cd.evCh <- ev:
	case <-cd.stop:
	}
}

func (cd *coord) reconnectOK() bool { return cd.window >= 0 }

// route queues one frame for dst's writer. A dead or departed
// destination counts a drop (the routed-frame loss the Result
// surfaces); a full queue is a backpressure death — structured, never
// a wedged coordinator.
func (cd *coord) route(l *rankLink, kind byte, body []byte) {
	if l.done.Load() || l.isDead() {
		l.drops.Add(1)
		if cd.mDrops != nil {
			cd.mDrops.Inc()
		}
		return
	}
	select {
	case l.out <- outFrame{kind: kind, body: body}:
	case <-cd.stop:
	default:
		cd.emit(event{rank: l.rank, backpressure: true})
	}
}

// flushEvery bounds how many queued frames a rank's writer coalesces
// into one flush, so the first frame of a long burst is not held back
// behind an ever-refilling queue.
const flushEvery = 64

// writeLoop drains one rank's outbound queue. Dedicated writers are
// what removed the head-of-line blocking of the reader-routes-
// synchronously design: a slow destination socket stalls only its own
// queue, never the source rank's reader. Frames already queued behind
// the one just taken leave in the same socket write; the writer flushes
// the moment the queue is empty and never waits for more, so batching
// adds no latency.
func (cd *coord) writeLoop(l *rankLink) {
	for {
		select {
		case f := <-l.out:
			pending := cd.deliver(l, f) // the conn holding unflushed frames
		drain:
			for n := 1; n < flushEvery; n++ {
				select {
				case f = <-l.out:
					c := cd.deliver(l, f)
					if c != pending { // the link was replaced mid-batch
						cd.flush(l, pending)
						pending = c
					}
				default:
					break drain
				}
			}
			cd.flush(l, pending)
		case <-cd.stop:
			return
		}
	}
}

// deliver buffers one queued frame on the rank's live conn, waiting out
// a reconnect if the link is down, and returns that conn for the caller
// to flush (nil when the frame was dropped). Sequenced frames enter the
// retransmit buffer before they are buffered, so a break before or
// during the flush is healed by the install-time replay.
func (cd *coord) deliver(l *rankLink, f outFrame) *conn {
	l.mu.Lock()
	for l.c == nil && !l.dead {
		l.cond.Wait()
	}
	if l.dead {
		l.mu.Unlock()
		if sequenced(f.kind) {
			l.drops.Add(1)
			if cd.mDrops != nil {
				cd.mDrops.Inc()
			}
		}
		return nil
	}
	c := l.c
	var seq uint32
	if sequenced(f.kind) {
		l.sendSeq++
		seq = l.sendSeq
		l.unacked = append(l.unacked, savedFrame{seq: seq, kind: f.kind, body: f.body})
		if len(l.unacked) > cd.depth {
			l.mu.Unlock()
			cd.emit(event{rank: l.rank, backpressure: true})
			return nil
		}
	}
	l.mu.Unlock()
	_ = c.queue(f.kind, seq, f.body) // sticky: the flush reports it
	return c
}

// flush writes out what deliver buffered on c. A failure is a broken
// link: the reader on this conn reports the break, and the frames sit
// in the retransmit buffer for the reconnect replay.
func (cd *coord) flush(l *rankLink, c *conn) {
	if c == nil || c.flush() == nil {
		return
	}
	l.mu.Lock()
	if l.c == c {
		l.c = nil
	}
	l.mu.Unlock()
	c.Close()
}

// readLoop pumps one connection generation of one rank: data frames
// are routed (via the destination's queue), pongs and acks feed the
// liveness and retransmit state, control frames go to the state
// machine, and a broken connection is reported with its generation so
// a stale reader cannot kill a healed link.
func (cd *coord) readLoop(l *rankLink, c *conn, gen int) {
	fail := func(err error) {
		c.Close()
		cd.emit(event{rank: l.rank, gen: gen, readerEnd: true, err: err})
	}
	for {
		kind, seq, body, err := c.read()
		if err != nil {
			cd.emit(event{rank: l.rank, gen: gen, readerEnd: true, err: err})
			return
		}
		l.lastSeen.Store(time.Now().UnixNano())
		process, ackNow, serr := l.accept(seq)
		if serr != nil {
			fail(serr)
			return
		}
		if seq != 0 && (ackNow || !process || kind != frameData) {
			// Ack promptly on the control frames (a worker lingers on its
			// unacked report) and on replayed duplicates; bulk data acks
			// every ackEvery.
			_ = c.write(frameAck, 0, encodeSeq(l.recvCursor()))
		}
		if !process {
			continue
		}
		switch kind {
		case frameData:
			_, _, _, dst, _, derr := decodeData(body)
			if derr != nil {
				fail(derr)
				return
			}
			owner := 0
			if cd.perProc > 0 {
				owner = dst / cd.perProc
			}
			if owner >= 0 && owner < len(cd.links) {
				cd.route(cd.links[owner], frameData, body)
			}
		case framePong:
			nanos, ack, perr := decodePing(body)
			if perr == nil {
				if rtt := time.Now().UnixNano() - nanos; rtt > l.rttNS.Load() {
					l.rttNS.Store(rtt)
				}
				l.ackSent(ack)
			}
		case frameAck:
			if s, aerr := decodeSeq(body); aerr == nil {
				l.ackSent(s)
			}
		case frameBye:
			cd.emit(event{rank: l.rank, gen: gen, readerEnd: true, graceful: true})
			return
		default:
			cd.emit(event{rank: l.rank, gen: gen, kind: kind, body: body})
		}
	}
}

// heartbeat pings every live rank and reports staleness. Pings travel
// the normal outbound queues (never a blocking write on this loop), a
// stale lastSeen is detected here regardless of whether the ping
// itself got through — a wedged worker is silent, and silence is the
// signal.
func (cd *coord) heartbeat() {
	t := time.NewTicker(cd.hb)
	defer t.Stop()
	for {
		select {
		case <-cd.stop:
			return
		case <-t.C:
			now := time.Now().UnixNano()
			for _, l := range cd.links {
				if !l.up.Load() || l.done.Load() {
					continue
				}
				if now-l.lastSeen.Load() > cd.hbTimeout.Nanoseconds() {
					cd.emit(event{rank: l.rank, hbTimeout: true})
					continue
				}
				select {
				case l.out <- outFrame{kind: framePing, body: encodePing(now, l.recvCursor())}:
				default: // queue full: data is flowing, acks cover liveness
				}
			}
		}
	}
}

// acceptLoop keeps the listener hot for the whole run so a worker
// redialling after a link failure finds someone to talk to. Joining
// HELLOs are handed to the initial gather; reconnect HELLOs go to the
// state machine.
type joinConn struct {
	rank int
	c    *conn
	err  error
}

func (cd *coord) acceptLoop(ln net.Listener, joinCh chan<- joinConn) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed: run over
		}
		go cd.handleHello(nc, joinCh)
	}
}

func (cd *coord) handleHello(nc net.Conn, joinCh chan<- joinConn) {
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	c := newConn(nc)
	kind, _, body, err := c.read()
	if err != nil || kind != frameHello {
		nc.Close()
		cd.join(joinCh, joinConn{rank: -1, err: fmt.Errorf("cluster: bad hello (kind %d): %v", kind, err)})
		return
	}
	rank, flags, lastRecv, derr := decodeHello(body)
	if derr != nil || rank < 0 || rank >= cd.procs {
		nc.Close()
		cd.join(joinCh, joinConn{rank: -1, err: fmt.Errorf("cluster: hello from invalid rank %d: %v", rank, derr)})
		return
	}
	_ = nc.SetReadDeadline(time.Time{})
	if flags&helloFlagReconnect != 0 {
		cd.emit(event{rank: rank, reHello: c, helloRecv: lastRecv})
		return
	}
	cd.join(joinCh, joinConn{rank: rank, c: c})
}

func (cd *coord) join(joinCh chan<- joinConn, j joinConn) {
	select {
	case joinCh <- j:
	case <-cd.stop:
		if j.c != nil {
			j.c.Close()
		}
	}
}

// Run executes one cluster run: launch Procs workers re-executing this
// binary, route their traffic, collect rank 0's result, drain, fold.
// A worker that dies, wedges, or loses its link beyond the reconnect
// window fails the run with a *faults.ProcessDeathError; deadline
// expiry with a *faults.DeadlockError. The partial Result (whatever
// reports arrived) is returned alongside either error. Run is a single
// attempt — RunSupervised adds the restart policy.
func Run(cfg Config) (*Result, error) {
	return runAttempt(cfg, 0)
}

func runAttempt(cfg Config, attempt int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	deadline := cfg.Deadline
	if deadline <= 0 {
		deadline = time.Minute
	}
	stderr := cfg.Stderr
	if stderr == nil {
		stderr = os.Stderr
	}

	cd := &coord{
		cfg:     cfg,
		procs:   cfg.Procs,
		perProc: cfg.PerProc,
		evCh:    make(chan event, cfg.Procs*8+16),
		stop:    make(chan struct{}),
		hb:      cfg.Heartbeat,
		window:  cfg.ReconnectWindow,
		depth:   cfg.QueueDepth,
	}
	if cd.hb <= 0 {
		cd.hb = defaultHeartbeat
	}
	cd.hbTimeout = heartbeatMissFactor * cd.hb
	if cd.window == 0 {
		cd.window = defaultReconnectWindow
	}
	if cd.depth <= 0 {
		cd.depth = defaultQueueDepth
	}
	if cfg.Metrics != nil {
		cd.mReconnects = cfg.Metrics.Counter("cluster_reconnects_total", "worker link reconnects accepted mid-run")
		cd.mDrops = cfg.Metrics.Counter("cluster_dropped_frames_total", "routed frames dropped on a dead destination")
	}
	cd.links = make([]*rankLink, cfg.Procs)
	for rank := range cd.links {
		l := &rankLink{rank: rank, out: make(chan outFrame, cd.depth)}
		l.cond = sync.NewCond(&l.mu)
		cd.links[rank] = l
	}

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
	defer ln.Close()

	// Shutdown order matters (defers are LIFO): workers are terminated
	// gracefully FIRST, while their links are still open, so draining
	// workers can flush reports; then the links die and every helper
	// goroutine unwinds.
	defer func() {
		close(cd.stop)
		for _, l := range cd.links {
			l.kill()
		}
	}()

	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cluster: resolving own binary: %w", err)
	}
	cmds := make([]*exec.Cmd, cfg.Procs)
	for rank := range cmds {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", envRank, rank),
			fmt.Sprintf("%s=%d", envProcs, cfg.Procs),
			fmt.Sprintf("%s=%d", envPerProc, cfg.PerProc),
			fmt.Sprintf("%s=%s", envAddr, addr),
			fmt.Sprintf("%s=%s", envTransport, cfg.Transport),
			fmt.Sprintf("%s=%s", envSpec, cfg.Spec),
			fmt.Sprintf("%s=%s", envFaults, cfg.Faults),
			fmt.Sprintf("%s=%s", envEventLog, boolEnv(cfg.EventLog)),
			fmt.Sprintf("%s=%d", envAttempt, attempt),
			fmt.Sprintf("%s=%s", envReconnect, boolEnv(cd.reconnectOK())),
		)
		cmd.Stdout = stderr
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			terminateAll(cmds, 0)
			return nil, fmt.Errorf("cluster: launching rank %d: %w", rank, err)
		}
		cmds[rank] = cmd
	}
	defer terminateAll(cmds, terminateGrace)

	joinCh := make(chan joinConn, cfg.Procs)
	go cd.acceptLoop(ln, joinCh)
	if err := cd.gather(joinCh, deadline); err != nil {
		return nil, err
	}

	// GO must reach every worker before any reader starts routing: the
	// first worker released sends data immediately, and a routed data
	// frame must not overtake another worker's GO on its connection.
	// Until the readers run, early frames just wait in socket buffers.
	start := time.Now()
	for _, l := range cd.links {
		if err := l.c.write(frameGo, 0, nil); err != nil {
			return nil, fmt.Errorf("cluster: starting workers: %w", err)
		}
	}

	now := time.Now().UnixNano()
	for _, l := range cd.links {
		l.lastSeen.Store(now)
		l.up.Store(true)
		go cd.readLoop(l, l.c, l.gen)
		go cd.writeLoop(l)
	}
	go cd.heartbeat()
	for rank, cmd := range cmds {
		go func(rank int, cmd *exec.Cmd) {
			cd.emit(event{rank: rank, exit: true, err: cmd.Wait()})
		}(rank, cmd)
	}

	// The state machine: wait for rank 0's result, drain, collect every
	// rank's report. A death before a rank has reported fails the run —
	// but a broken link first gets the reconnect window, and a healed
	// link resumes as if nothing happened. The deadline backstops a
	// wedged cluster.
	res := &Result{Procs: cfg.Procs, PerProc: cfg.PerProc}
	reports := make([]*workerReport, cfg.Procs)
	exitSeen := make([]bool, cfg.Procs)
	exitErrs := make([]error, cfg.Procs)
	downSince := make([]time.Time, cfg.Procs)
	downReason := make([]string, cfg.Procs)
	downErr := make([]error, cfg.Procs)
	var coordEvents []eventlog.DumpEvent
	nReports := 0
	exited := 0
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	var runErr error

	died := func(rank int, reason string, err error) *faults.ProcessDeathError {
		return &faults.ProcessDeathError{
			Rank: rank, PEs: pesOf(rank, cfg.PerProc), Reason: reason, Err: err,
		}
	}
	// linkDown classifies a break and opens the reconnect window (or
	// returns the death immediately when reconnection is off).
	linkDown := func(rank int, err error) *faults.ProcessDeathError {
		l := cd.links[rank]
		reason := "connection closed"
		if err != nil && err != io.EOF {
			reason = "connection error"
		}
		if exitSeen[rank] {
			return died(rank, "exit", exitErrs[rank])
		}
		if !cd.reconnectOK() {
			return died(rank, reason, err)
		}
		downSince[rank] = time.Now()
		downReason[rank], downErr[rank] = reason, err
		if os.Getenv("PARHASK_CLUSTER_DEBUG") != "" {
			fmt.Fprintf(os.Stderr, "coord debug: rank %d link down: %s (%v)\n", rank, reason, err)
		}
		coordEvents = append(coordEvents, eventlog.DumpEvent{
			T: time.Since(start).Nanoseconds(), Type: "block-begin", Arg: int32(rank),
		})
		gen := l.curGen()
		win := cd.window
		time.AfterFunc(win, func() {
			cd.emit(event{rank: rank, gen: gen, winExpired: true})
		})
		return nil
	}

loop:
	for nReports < cfg.Procs {
		select {
		case <-timer.C:
			runErr = &faults.DeadlockError{Backend: "cluster", Reason: "deadline", Elapsed: time.Since(start)}
			break loop
		case ev := <-cd.evCh:
			l := cd.links[ev.rank]
			switch {
			case ev.exit:
				exited++
				exitSeen[ev.rank] = true
				exitErrs[ev.rank] = ev.err
				if reports[ev.rank] == nil && !l.up.Load() {
					// The process is gone: no reconnect is coming. Report
					// the first observed cause if the link broke first.
					if !downSince[ev.rank].IsZero() {
						runErr = died(ev.rank, downReason[ev.rank], downErr[ev.rank])
					} else {
						runErr = died(ev.rank, "exit", ev.err)
					}
					break loop
				}
			case ev.readerEnd:
				if ev.gen != l.curGen() {
					break // a replaced connection's reader winding down
				}
				l.mu.Lock()
				if l.c != nil {
					l.c.Close()
					l.c = nil
				}
				l.mu.Unlock()
				l.up.Store(false)
				if reports[ev.rank] != nil {
					break // reported already; the exit watcher handles the rest
				}
				if ev.graceful {
					runErr = died(ev.rank, "connection closed", nil)
					break loop
				}
				if pd := linkDown(ev.rank, ev.err); pd != nil {
					runErr = pd
					break loop
				}
			case ev.reHello != nil:
				if !cd.reconnectOK() || l.done.Load() || l.isDead() || reports[ev.rank] != nil {
					ev.reHello.Close()
					break
				}
				if !cd.resumeRank(l, ev.reHello, ev.helloRecv) {
					break
				}
				res.Reconnects++
				if cd.mReconnects != nil {
					cd.mReconnects.Inc()
				}
				if !downSince[ev.rank].IsZero() {
					res.ReconnectNS += time.Since(downSince[ev.rank]).Nanoseconds()
					downSince[ev.rank] = time.Time{}
				}
				coordEvents = append(coordEvents, eventlog.DumpEvent{
					T: time.Since(start).Nanoseconds(), Type: "block-end", Arg: int32(ev.rank),
				})
			case ev.winExpired:
				if reports[ev.rank] != nil || l.up.Load() || ev.gen != l.curGen() {
					break // healed (or finished) before the window closed
				}
				runErr = died(ev.rank, downReason[ev.rank], downErr[ev.rank])
				break loop
			case ev.hbTimeout:
				if reports[ev.rank] != nil || !l.up.Load() {
					break
				}
				if time.Now().UnixNano()-l.lastSeen.Load() < cd.hbTimeout.Nanoseconds() {
					break // a frame arrived since the tick
				}
				runErr = died(ev.rank, "heartbeat timeout",
					fmt.Errorf("silent for %v", time.Duration(time.Now().UnixNano()-l.lastSeen.Load())))
				break loop
			case ev.backpressure:
				if reports[ev.rank] != nil {
					break
				}
				runErr = died(ev.rank, "backpressure",
					fmt.Errorf("outbound queue overflow (depth %d)", cd.depth))
				break loop
			case ev.kind == frameResult:
				v, derr := wire.Decode(ev.body)
				if derr != nil {
					runErr = fmt.Errorf("cluster: decoding rank 0 result: %w", derr)
					break loop
				}
				res.Value = v
				// The result is in: drain the other ranks so they unwind
				// and report. The drain rides each rank's queue, so a rank
				// mid-reconnect still gets it after healing.
				for rank := 1; rank < cfg.Procs; rank++ {
					cd.route(cd.links[rank], frameDrain, nil)
				}
			case ev.kind == frameError:
				runErr = decodeWorkerError(ev.rank, ev.body)
				break loop
			case ev.kind == frameReport:
				var rep workerReport
				if derr := json.Unmarshal(ev.body, &rep); derr != nil {
					runErr = fmt.Errorf("cluster: rank %d report: %w", ev.rank, derr)
					break loop
				}
				if reports[ev.rank] == nil {
					reports[ev.rank] = &rep
					nReports++
					l.done.Store(true)
				}
			}
		}
	}
	res.CoordNS = time.Since(start).Nanoseconds()
	foldReports(res, reports, coordEvents)
	res.DroppedFrames = make([]int64, cfg.Procs)
	for rank, l := range cd.links {
		res.DroppedFrames[rank] = l.drops.Load()
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
	for exited < cfg.Procs {
		select {
		case ev := <-cd.evCh:
			if ev.exit {
				exited++
			}
		case <-grace.C:
			return res, nil
		}
	}
	return res, nil
}

// gather collects the initial joining HELLO of every rank.
func (cd *coord) gather(joinCh <-chan joinConn, deadline time.Duration) error {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	joined := 0
	for joined < cd.procs {
		select {
		case <-timer.C:
			return fmt.Errorf("cluster: waiting for workers (%d/%d connected): timeout", joined, cd.procs)
		case j := <-joinCh:
			if j.err != nil {
				return j.err
			}
			l := cd.links[j.rank]
			l.mu.Lock()
			dup := l.c != nil
			if !dup {
				l.c = j.c
				l.gen = 1
			}
			l.mu.Unlock()
			if dup {
				j.c.Close()
				return fmt.Errorf("cluster: hello from duplicate rank %d", j.rank)
			}
			joined++
		}
	}
	return nil
}

// resumeRank installs a reconnect HELLO's connection: welcome the
// worker with our receive cursor, replay everything it never acked,
// then swap the conn in and wake the writer. Runs on the state
// machine, so installs are serialised per rank.
func (cd *coord) resumeRank(l *rankLink, c *conn, helloRecv uint32) bool {
	l.mu.Lock()
	if l.c != nil {
		// The worker noticed the break before our reader did: replace.
		old := l.c
		l.c = nil
		old.Close()
	}
	l.unacked = trimAcked(l.unacked, helloRecv)
	_ = c.queue(frameWelcome, 0, encodeSeq(l.lastRecv)) // sticky: the flush reports it
	for _, sf := range l.unacked {
		_ = c.queue(sf.kind, sf.seq, sf.body)
	}
	if werr := c.flush(); werr != nil {
		l.mu.Unlock()
		c.Close()
		return false
	}
	l.gen++
	gen := l.gen
	l.c = c
	l.cond.Broadcast()
	l.mu.Unlock()
	l.lastSeen.Store(time.Now().UnixNano())
	l.up.Store(true)
	go cd.readLoop(l, c, gen)
	return true
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
// rank owns its PE slots, totals sum, timelines concatenate in global
// PE order, and any recovery events gain a synthetic coordinator lane.
func foldReports(res *Result, reports []*workerReport, coordEvents []eventlog.DumpEvent) {
	res.PerPE = make([]nativeeden.PEStats, res.Procs*res.PerProc)
	res.Reports = make([]nativeeden.Report, res.Procs)
	var dumps []*eventlog.Dump
	for rank, rep := range reports {
		if rep == nil {
			continue
		}
		res.Reports[rank] = rep.Report
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
		res.GC.Cycles += rep.Report.GC.Cycles
		res.GC.PauseNS += rep.Report.GC.PauseNS
		res.GC.BytesAlloc += rep.Report.GC.BytesAlloc
		res.GC.Shared = res.GC.Shared || rep.Report.GC.Shared
		if rank == 0 {
			res.WallNS = rep.Report.WallNS
		}
		if rep.Dump != nil {
			dumps = append(dumps, rep.Dump)
		}
	}
	res.Timeline = mergeDumps(dumps, coordEvents)
}

// mergeDumps concatenates per-rank timeline dumps (already in rank
// order, agents named by global PE) into one cluster-wide dump. When
// the run rode out link outages, a synthetic "coord" lane carries the
// recovery brackets (block-begin at the break, block-end at the
// accepted re-HELLO, Arg = rank).
func mergeDumps(dumps []*eventlog.Dump, coordEvents []eventlog.DumpEvent) *eventlog.Dump {
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
	if len(coordEvents) > 0 {
		// Unhealed outages (run failed or finished mid-window) still
		// close their bracket so the lane renders.
		open := map[int32]bool{}
		for _, ev := range coordEvents {
			if ev.Type == "block-begin" {
				open[ev.Arg] = true
			} else {
				delete(open, ev.Arg)
			}
		}
		last := coordEvents[len(coordEvents)-1].T
		for rank := range open {
			coordEvents = append(coordEvents, eventlog.DumpEvent{T: last, Type: "block-end", Arg: rank})
		}
		out.Agents = append(out.Agents, "coord")
		out.Events = append(out.Events, coordEvents)
	}
	return out
}
