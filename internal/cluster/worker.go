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

// The worker's exit statuses besides success: failExitCode when
// workerMain fails (once the run has started, almost always a broken
// control link: a run's own failures travel as ERROR frames), and
// killExitCode for a kill-rank fault — distinct so tests can tell an
// injected death from a crash.
const (
	failExitCode = 1
	killExitCode = 3
)

// byeAckLinger is how long a worker waits for the ACK of its BYE.
const byeAckLinger = 5 * time.Second

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
		os.Exit(failExitCode)
	}
	os.Exit(0)
}

// workerReport is what each worker hands back over the control
// connection after its run: its rank's statistics and, when event
// logging is on, its PEs' timeline dump (agents named by global PE).
type workerReport struct {
	Rank    int               `json:"rank"`
	Report  nativeeden.Report `json:"report"`
	Dump    *eventlog.Dump    `json:"dump,omitempty"`
	Err     string            `json:"err,omitempty"`
	Drained bool              `json:"drained,omitempty"`
	// GOMAXPROCS is the rank's runtime.GOMAXPROCS(0): the core share
	// the coordinator started it with (see workerProcs).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Dropped counts, per destination rank, the data frames this rank
	// sent to a peer whose link had closed.
	Dropped []int64 `json:"dropped,omitempty"`
}

// wlink is the worker's coordinator link. It is never redialled: the
// first break, seen by a write or by the reader, is terminal, closes
// the conn and is what every later write returns. The coordinator
// reads a break before the REPORT as this rank's death, and a
// supervised run replays the whole run.
type wlink struct {
	rank          int
	network, addr string

	c *conn // set once, by dial, before any other goroutine uses the link

	mu    sync.Mutex
	cond  *sync.Cond
	err   error // terminal: the link is gone
	acked bool  // the coordinator has answered our BYE

	// wedged simulates a worker whose link servicing died while the
	// process lives: reads, pongs and sends all stop.
	wedged atomic.Bool
}

func newWLink(rank int, network, addr string) *wlink {
	l := &wlink{rank: rank, network: network, addr: addr}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// dial makes the connection and sends the HELLO.
func (l *wlink) dial() error {
	nc, err := net.Dial(l.network, l.addr)
	if err != nil {
		return fmt.Errorf("cluster: rank %d dial %s: %w", l.rank, l.addr, err)
	}
	c := newConn(nc)
	if err := c.write(frameHello, encodeHello(l.rank)); err != nil {
		nc.Close()
		return fmt.Errorf("cluster: rank %d hello: %w", l.rank, err)
	}
	l.c = c
	return nil
}

// stallIfWedged parks the calling goroutine forever once a wedge-rank
// fault has fired — the worker falls silent without dying.
func (l *wlink) stallIfWedged() {
	if l.wedged.Load() {
		select {}
	}
}

// write sends one control frame (RESULT or ERROR, REPORT, BYE). A
// failed write is terminal, and so is a break the reader saw first:
// either error is returned here and to every later write.
func (l *wlink) write(kind byte, body []byte) error {
	l.stallIfWedged()
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := l.c.write(kind, body); err != nil {
		return l.failTerminal(err)
	}
	return nil
}

// failTerminal records the link's terminal error, keeping the first,
// closes the conn and wakes every waiter. It returns the terminal
// error.
func (l *wlink) failTerminal(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
		if l.c != nil {
			l.c.Close()
		}
	}
	l.cond.Broadcast()
	return l.err
}

// sever is the sever-rank fault: cut the link. The reader's failed
// read makes the break terminal.
func (l *wlink) sever() { l.c.Close() }

// finished reports whether the coordinator has acked our goodbye: a
// connection that ends after that is the coordinator hanging up.
func (l *wlink) finished() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked
}

// awaitAcked lingers after BYE until the coordinator's ACK arrives, the
// link is gone, or the timeout passes. Exiting before the ACK risks the
// coordinator reading a death instead of a result.
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
	// The ACK and the terminal error broadcast on the cond.
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
// unwinds the run, pings are echoed, and the ACK of our BYE releases
// awaitAcked. It returns the error that should fail the run: the link
// broke before the ACK, or the coordinator sent a data frame, which
// has no business on this link. Every frame is read into one buffer
// for the life of the link: each case below is done with the body
// before the next read.
func (l *wlink) readControl(drain func()) error {
	c := l.c
	var buf []byte
	for {
		kind, body, err := c.read(buf)
		if err != nil {
			if l.finished() {
				return nil // the coordinator hung up after acking our goodbye
			}
			return fmt.Errorf("cluster: rank %d lost coordinator: %w", l.rank, l.failTerminal(err))
		}
		buf = body
		l.stallIfWedged()
		switch kind {
		case frameData:
			return errDataOnControl(l.rank)
		case frameDrain:
			drain()
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
	kind, _, err := l.c.read(nil)
	if err != nil || kind != frameGo {
		return fmt.Errorf("cluster: rank %d waiting for go: kind %d, %v", rank, kind, err)
	}

	// Self-applied cluster faults: kill-rank dies abruptly mid-run,
	// sever-rank cuts the control link, wedge-rank goes silent on every
	// link without dying. The one-shot classes fire on the first
	// attempt only unless the plan says rank-faults=every — a restart
	// budget must be able to win.
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
