package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parhask/internal/eden/wire"
	"parhask/internal/eventlog"
	"parhask/internal/faults"
	"parhask/internal/nativeeden"
)

// Worker environment. The coordinator re-executes its own binary with
// these set; MaybeWorker turns that invocation into a cluster worker
// before the binary's normal main runs. The data links need no entry:
// their fds follow from the rank and the process count (inheritedPeers).
const (
	envRank      = "PARHASK_CLUSTER_RANK"
	envProcs     = "PARHASK_CLUSTER_PROCS"
	envPerProc   = "PARHASK_CLUSTER_PERPROC"
	envAddr      = "PARHASK_CLUSTER_ADDR"
	envTransport = "PARHASK_CLUSTER_TRANSPORT"
	envSpec      = "PARHASK_CLUSTER_SPEC"
	envFaults    = "PARHASK_CLUSTER_FAULTS"
	envEventLog  = "PARHASK_CLUSTER_EVENTLOG"
	// envAttempt is the supervised restart attempt index (0 = first
	// run). Workers use it to rotate the fault seed and to skip the
	// one-shot rank fault classes on retries.
	envAttempt = "PARHASK_CLUSTER_ATTEMPT"
)

// killExitCode is the status a kill-rank fault exits with — distinct
// from both success and ordinary failure so tests can tell an injected
// death from a crash.
const killExitCode = 3

// Worker-side reconnection tuning: how long a worker keeps redialling
// a lost coordinator before giving up, the dial backoff bounds, how long
// it waits for a WELCOME, and how long it waits for the ACK of its BYE.
const (
	redialWindow     = 15 * time.Second
	redialBackoffMin = 25 * time.Millisecond
	redialBackoffMax = time.Second
	welcomeDeadline  = 5 * time.Second
	byeAckLinger     = 5 * time.Second
)

// MaybeWorker must be the first call in main() of every binary that
// can coordinate a cluster: if the process was launched as a cluster
// worker (PARHASK_CLUSTER_RANK is set) it runs the worker to
// completion and exits, never returning; otherwise it is a no-op.
func MaybeWorker() {
	if os.Getenv(envRank) == "" {
		return
	}
	if err := workerMain(); err != nil {
		fmt.Fprintf(os.Stderr, "cluster worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerReport is what each worker hands back over the control
// connection after its run: its rank's statistics and, when event
// logging is on, its PEs' timeline dump (agents named by global PE).
type workerReport struct {
	Rank       int               `json:"rank"`
	Report     nativeeden.Report `json:"report"`
	Dump       *eventlog.Dump    `json:"dump,omitempty"`
	Err        string            `json:"err,omitempty"`
	Drained    bool              `json:"drained,omitempty"`
	Reconnects int               `json:"reconnects,omitempty"`
	// GOMAXPROCS is the rank's runtime.GOMAXPROCS(0): the core share
	// the coordinator started it with (see workerProcs).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Dropped counts, per destination rank, the data frames this rank
	// sent to a peer whose link had closed.
	Dropped []int64 `json:"dropped,omitempty"`
}

// wlink is the worker's self-healing coordinator link. Writers block
// while the link is down and the reader owns redial: on a connection
// error it re-dials with exponential backoff inside redialWindow,
// re-HELLOs, takes the coordinator's WELCOME, resends every one-shot
// frame it has sent so far, and only then wakes the writers. After a
// sever-rank fault the first break is terminal.
type wlink struct {
	rank          int
	network, addr string

	mu         sync.Mutex
	cond       *sync.Cond
	c          *conn // nil while down
	err        error // terminal: the link is gone for good
	reconnect  bool
	sent       []oneShot // every one-shot frame sent, in order
	acked      bool      // the coordinator has answered our BYE
	holdUntil  time.Time // flap-rank outage: no redial before this
	reconnects int

	// wedged simulates a worker whose link servicing died while the
	// process lives: reads, pongs and sends all stop.
	wedged atomic.Bool
}

func newWLink(rank int, network, addr string) *wlink {
	l := &wlink{rank: rank, network: network, addr: addr, reconnect: true}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// dial makes the initial connection and sends the joining HELLO.
func (l *wlink) dial() error {
	nc, err := net.Dial(l.network, l.addr)
	if err != nil {
		return fmt.Errorf("cluster: rank %d dial %s: %w", l.rank, l.addr, err)
	}
	c := newConn(nc)
	if err := c.write(frameHello, encodeHello(l.rank, 0)); err != nil {
		nc.Close()
		return fmt.Errorf("cluster: rank %d hello: %w", l.rank, err)
	}
	l.mu.Lock()
	l.c = c
	l.mu.Unlock()
	return nil
}

// current returns the live conn, or nil while the link is down.
func (l *wlink) current() *conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}

// stallIfWedged parks the calling goroutine forever once a wedge-rank
// fault has fired — the worker falls silent without dying.
func (l *wlink) stallIfWedged() {
	if l.wedged.Load() {
		select {}
	}
}

// oneShot is a frame a worker sends once a run (RESULT or ERROR,
// REPORT, BYE), kept so a reconnect can resend it.
type oneShot struct {
	kind byte
	body []byte
}

// write sends one one-shot frame and keeps it. A send that breaks
// mid-flight is resent by the reader's redial, so the caller sees
// success; the error is the terminal link error once the link is gone
// for good. The frame is kept and written under the link lock, so a
// resume either resends it or installs its conn before it is written:
// frames reach the coordinator in the order they were sent.
func (l *wlink) write(kind byte, body []byte) error {
	l.stallIfWedged()
	l.mu.Lock()
	for l.c == nil && l.err == nil {
		l.cond.Wait()
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	c := l.c
	l.sent = append(l.sent, oneShot{kind, body})
	werr := c.write(kind, body)
	l.mu.Unlock()
	if werr == nil {
		return nil
	}
	l.broken(c, werr)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err // nil when the redial will resend it
}

// broken marks c dead. The reader owns redial; writers just step
// aside. Once severed, the first break is the terminal error.
func (l *wlink) broken(c *conn, err error) {
	c.Close()
	l.mu.Lock()
	if l.c == c {
		l.c = nil
	}
	if !l.reconnect && l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// failTerminal records the link's final error and wakes every waiter.
func (l *wlink) failTerminal(err error) error {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	err = l.err
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// sever is the sever-rank fault: cut the link and refuse to heal it.
func (l *wlink) sever() {
	l.mu.Lock()
	l.reconnect = false
	c := l.c
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// flap is the flap-rank fault: drop the link now, stay dark for down,
// then let the normal redial path heal it.
func (l *wlink) flap(down time.Duration) {
	l.mu.Lock()
	l.holdUntil = time.Now().Add(down)
	c := l.c
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// redial reconnects after a link failure; only the reader calls it.
// failed is the conn whose read broke (nil when the reader found the
// link already down) — it must be retired here, because if no writer
// has tripped over it yet it is still installed, and trusting l.c
// would hand the same dead conn straight back. Returns the new conn,
// or the terminal error once the link is gone for good (severed, or
// the window exhausted).
func (l *wlink) redial(failed *conn, cause error) (*conn, error) {
	if failed != nil {
		failed.Close() // a remote break leaves the local fd open
	}
	l.mu.Lock()
	if l.c == failed && failed != nil {
		l.c = nil
	}
	if !l.reconnect || l.err != nil {
		l.mu.Unlock()
		return nil, l.failTerminal(cause)
	}
	if l.c != nil {
		// A writer already failed over to a new conn? It cannot — only
		// redial installs conns — so a non-nil conn here means the error
		// raced a fresh install; use it.
		c := l.c
		l.mu.Unlock()
		return c, nil
	}
	hold := l.holdUntil
	l.mu.Unlock()
	if d := time.Until(hold); d > 0 {
		time.Sleep(d)
	}
	backoff := redialBackoffMin
	deadline := time.Now().Add(redialWindow)
	for {
		nc, derr := net.Dial(l.network, l.addr)
		if derr == nil {
			c, rerr := l.resume(nc)
			if rerr == nil {
				return c, nil
			}
		}
		l.mu.Lock()
		healable := l.reconnect && l.err == nil
		l.mu.Unlock()
		if !healable || time.Now().After(deadline) {
			return nil, l.failTerminal(fmt.Errorf("cluster: rank %d could not reconnect: %w", l.rank, cause))
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > redialBackoffMax {
			backoff = redialBackoffMax
		}
	}
}

// resume performs the reconnect handshake on a freshly-dialled socket:
// re-HELLO, read the WELCOME, resend every one-shot frame sent so far
// (the coordinator ignores what it already has), install the conn, wake
// the writers.
func (l *wlink) resume(nc net.Conn) (*conn, error) {
	c := newConn(nc)
	if err := c.write(frameHello, encodeHello(l.rank, helloFlagReconnect)); err != nil {
		nc.Close()
		return nil, err
	}
	_ = nc.SetReadDeadline(time.Now().Add(welcomeDeadline))
	kind, _, err := c.read(nil)
	if err != nil || kind != frameWelcome {
		nc.Close()
		return nil, fmt.Errorf("cluster: rank %d waiting for welcome: kind %d, %v", l.rank, kind, err)
	}
	_ = nc.SetReadDeadline(time.Time{})
	l.mu.Lock()
	for _, f := range l.sent {
		_ = c.queue(f.kind, f.body) // sticky: the flush reports it
	}
	if werr := c.flush(); werr != nil {
		l.mu.Unlock()
		nc.Close()
		return nil, werr
	}
	l.c = c
	l.reconnects++
	l.cond.Broadcast()
	l.mu.Unlock()
	return c, nil
}

// finished reports whether the coordinator has acked our goodbye: the
// link's work is done, and redialling would only hand the coordinator a
// connection it no longer wants.
func (l *wlink) finished() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked
}

// awaitAcked lingers after BYE until the coordinator's ACK arrives, the
// link is gone for good, or the timeout passes. Exiting before the ACK
// risks the coordinator reading a death instead of a result.
func (l *wlink) awaitAcked(timeout time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	timedOut := false
	timer := time.AfterFunc(timeout, func() {
		l.mu.Lock()
		timedOut = true
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer timer.Stop()
	// The ACK and every terminal-error path broadcast on the cond.
	for !l.acked && l.err == nil && !timedOut {
		l.cond.Wait()
	}
}

// meshTransport is the worker's data plane: one inherited connection
// to every other rank. A send is one frame written under its peer
// conn's lock, which keeps per-(src,dst) FIFO order; the frame
// nativeeden encoded is the body, its header written into the room in
// front of the payload. Peer frames are never retained: the socket is
// ordered and lossless, and an inherited link is never redialled, so
// nothing could resend them. A link lives and dies with
// its two processes. A send to a closed peer drops the frame and counts
// it for that rank, and a read that ends says nothing; the coordinator
// alone judges a death, by exit, heartbeat or deadline.
type meshTransport struct {
	perProc int
	l       *wlink         // its wedge-rank fault stalls the data plane too
	peers   []*conn        // by rank; nil at this rank
	drops   []atomic.Int64 // by rank: frames sent to a closed peer
}

// SendRemote never fails: a closed peer is a dropped frame. A failed
// write leaves the conn's error sticky, so later sends to that peer
// drop at once.
func (t *meshTransport) SendRemote(kind nativeeden.MsgKind, chanID int64, src, dst int, frame []byte) error {
	t.l.stallIfWedged()
	putDataHeader(frame, kind, chanID, src, dst)
	r := dst / t.perProc
	if t.peers[r].write(frameData, frame) != nil {
		t.drops[r].Add(1)
	}
	return nil
}

// read delivers one peer's frames until the link ends. Every frame is
// read into one buffer for the life of the link: Deliver's wire.Decode
// copies the payload out before the next read.
func (t *meshTransport) read(rts *nativeeden.RTS, c *conn) {
	var buf []byte
	for {
		kind, body, err := c.read(buf)
		if err != nil {
			return
		}
		buf = body
		t.l.stallIfWedged()
		mk, chanID, src, dst, payload, derr := decodeData(body)
		if derr == nil && kind != frameData {
			derr = fmt.Errorf("cluster: control frame kind %d on a data link", kind)
		}
		if derr == nil {
			derr = rts.Deliver(mk, chanID, src, dst, payload)
		}
		if derr != nil {
			rts.Fail(derr)
			return
		}
	}
}

// inheritedPeers wraps the data links the coordinator handed this rank:
// fd 3+k is its link to the k-th other rank in rank order (dialMesh).
func inheritedPeers(rank, procs int) ([]*conn, error) {
	if rank < 0 || rank >= procs {
		return nil, fmt.Errorf("cluster: rank %d outside [0,%d)", rank, procs)
	}
	files := make([]*os.File, procs-1)
	for k := range files {
		files[k] = os.NewFile(uintptr(3+k), "peer")
	}
	return peerConns(rank, files)
}

// peerConns turns rank's mesh ends, in fd order, into connections
// indexed by peer rank (nil at rank itself), closing the files.
func peerConns(rank int, files []*os.File) ([]*conn, error) {
	conns := make([]*conn, len(files)+1)
	for k, f := range files {
		peer := k
		if k >= rank {
			peer++
		}
		nc, err := net.FileConn(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("cluster: rank %d link to rank %d: %w", rank, peer, err)
		}
		conns[peer] = newConn(nc)
	}
	return conns, nil
}

// readControl drains the control connection for the whole run: drain
// unwinds the run, pings are echoed, the ACK of our BYE releases
// awaitAcked, and a broken connection triggers the redial instead of
// aborting. It returns the error that should fail the run: the link is
// gone for good, or the coordinator sent a data frame, which has no
// business on this link. Every frame is read into one buffer for the
// life of the link: each case below is done with the body before the
// next read (the redial's welcome is read into a buffer of its own).
func (l *wlink) readControl(drain func()) error {
	var buf []byte
	for {
		c := l.current()
		if c == nil {
			var rerr error
			if c, rerr = l.redial(nil, errors.New("connection reset")); rerr != nil {
				return fmt.Errorf("cluster: rank %d lost coordinator: %w", l.rank, rerr)
			}
		}
		kind, body, err := c.read(buf)
		if err != nil {
			if l.finished() {
				return nil // the coordinator hung up after acking our goodbye
			}
			if _, rerr := l.redial(c, err); rerr != nil {
				return fmt.Errorf("cluster: rank %d lost coordinator: %w", l.rank, rerr)
			}
			continue
		}
		buf = body
		l.stallIfWedged()
		switch kind {
		case frameData:
			return errDataOnControl(l.rank)
		case frameDrain:
			drain() // a DRAIN resent after a reconnect drains again: a no-op
		case framePing:
			_ = c.write(framePong, body)
		case frameAck:
			l.mu.Lock()
			l.acked = true
			l.cond.Broadcast()
			l.mu.Unlock()
		}
	}
}

func envInt(key string) (int, error) {
	v, err := strconv.Atoi(os.Getenv(key))
	if err != nil {
		return 0, fmt.Errorf("cluster: bad %s=%q: %w", key, os.Getenv(key), err)
	}
	return v, nil
}

// seedRotate derives attempt k's fault seed from the plan's: each
// supervised retry sees the same fault *classes* but a fresh
// probabilistic pattern, so a run killed by an unlucky seed is not
// condemned to the identical death forever.
func seedRotate(seed uint64, attempt int) uint64 {
	return seed + uint64(attempt)*0x9e3779b97f4a7c15
}

// reportFailed is the error a worker exits with when it cannot tell the
// coordinator that its run failed. A run that failed because the link
// is gone fails the report with that same cause, which is then named
// once, not twice.
func reportFailed(rank int, runErr, werr error) error {
	if errors.Is(runErr, werr) {
		return runErr
	}
	return fmt.Errorf("cluster: rank %d reporting failure %v: %w", rank, runErr, werr)
}

func workerMain() error {
	rank, err := envInt(envRank)
	if err != nil {
		return err
	}
	procs, err := envInt(envProcs)
	if err != nil {
		return err
	}
	perProc, err := envInt(envPerProc)
	if err != nil {
		return err
	}
	network := os.Getenv(envTransport)
	if network != "tcp" && network != "unix" {
		return fmt.Errorf("cluster: bad %s=%q (want tcp or unix)", envTransport, network)
	}
	prog, _, err := BuildProgram(os.Getenv(envSpec))
	if err != nil {
		return err
	}
	plan, err := faults.Parse(os.Getenv(envFaults))
	if err != nil {
		return err
	}
	attempt := 0
	if v := os.Getenv(envAttempt); v != "" {
		if attempt, err = envInt(envAttempt); err != nil {
			return err
		}
	}
	peers, err := inheritedPeers(rank, procs)
	if err != nil {
		return err
	}

	l := newWLink(rank, network, os.Getenv(envAddr))
	if err := l.dial(); err != nil {
		return err
	}
	c0 := l.current()
	kind, _, err := c0.read(nil)
	if err != nil || kind != frameGo {
		return fmt.Errorf("cluster: rank %d waiting for go: kind %d, %v", rank, kind, err)
	}

	// Self-applied cluster faults: kill-rank dies abruptly mid-run,
	// sever-rank cuts the control link for good, flap-rank cuts it
	// transiently (the redial heals it), wedge-rank goes silent on every
	// link without dying. The
	// one-shot classes fire on the first attempt only unless the plan
	// says rank-faults=every — a restart budget must be able to win.
	if plan != nil {
		if attempt > 0 {
			plan.Seed = seedRotate(plan.Seed, attempt)
		}
		if attempt == 0 || plan.RankEvery {
			if d, ok := plan.KillRank[rank]; ok {
				time.AfterFunc(d, func() { os.Exit(killExitCode) })
			}
			if d, ok := plan.SeverRank[rank]; ok {
				time.AfterFunc(d, func() { l.sever() })
			}
			if r, ok := plan.FlapRank[rank]; ok {
				down := r.Down
				time.AfterFunc(r.At, func() { l.flap(down) })
			}
			if d, ok := plan.WedgeRank[rank]; ok {
				time.AfterFunc(d, func() { l.wedged.Store(true) })
			}
		}
	}

	mesh := &meshTransport{perProc: perProc, l: l, peers: peers, drops: make([]atomic.Int64, procs)}
	cfg := nativeeden.Config{
		EventLog: os.Getenv(envEventLog) == "1",
		Cluster: &nativeeden.ClusterSpec{
			Rank: rank, Procs: procs, PerProc: perProc,
			Transport: mesh,
		},
	}
	if plan != nil {
		cfg.Faults = faults.NewInjector(plan)
	}
	rts, err := nativeeden.NewRTS(cfg)
	if err != nil {
		return err
	}

	// Graceful shutdown: the coordinator's terminate path sends SIGTERM
	// before SIGKILL; draining lets this worker flush its report and
	// eventlog instead of dying mid-write.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		if _, ok := <-sigCh; ok {
			rts.Drain()
		}
	}()

	// The readers start only now that the RTS exists: a peer released
	// by GO sooner than this rank finds its first frames waiting in the
	// socket buffer. Each ends with its link, or with the process.
	for _, c := range peers {
		if c != nil {
			go mesh.read(rts, c)
		}
	}
	go func() {
		if err := l.readControl(rts.Drain); err != nil {
			rts.Fail(err)
		}
	}()

	res, runErr := rts.RunMain(prog)
	drained := errors.Is(runErr, nativeeden.ErrDrained)

	rep := workerReport{Rank: rank, Drained: drained, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if res != nil {
		rep.Report = res.Report()
		if res.Events != nil {
			agents := make([]string, perProc)
			for i := range agents {
				agents[i] = fmt.Sprintf("pe%d", rank*perProc+i)
			}
			rep.Dump = res.Events.Dump(agents)
		}
	}
	rep.Dropped = make([]int64, procs)
	for r := range rep.Dropped {
		rep.Dropped[r] = mesh.drops[r].Load()
	}
	l.mu.Lock()
	rep.Reconnects = l.reconnects
	l.mu.Unlock()
	if runErr != nil && !drained {
		rep.Err = runErr.Error()
		if werr := l.write(frameError, encodeWorkerError(runErr)); werr != nil {
			return reportFailed(rank, runErr, werr)
		}
	} else if rank == 0 {
		payload, eerr := wire.Encode(res.Value)
		if eerr != nil {
			rep.Err = eerr.Error()
			if werr := l.write(frameError, encodeWorkerError(eerr)); werr != nil {
				return fmt.Errorf("cluster: rank 0 reporting encode failure %v: %w", eerr, werr)
			}
		} else if werr := l.write(frameResult, payload); werr != nil {
			return fmt.Errorf("cluster: rank 0 sending result: %w", werr)
		}
	}
	body, err := json.Marshal(&rep)
	if err != nil {
		return fmt.Errorf("cluster: rank %d marshalling report: %w", rank, err)
	}
	if err := l.write(frameReport, body); err != nil {
		return fmt.Errorf("cluster: rank %d sending report: %w", rank, err)
	}
	if err := l.write(frameBye, nil); err != nil {
		return err
	}
	l.awaitAcked(byeAckLinger)
	return nil
}
