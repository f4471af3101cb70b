package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/signal"
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
// before the binary's normal main runs.
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
	// envReconnect ("1"/"0") tells the worker whether a broken
	// coordinator link should be redialled or is terminal.
	envReconnect = "PARHASK_CLUSTER_RECONNECT"
)

// killExitCode is the status a kill-rank fault exits with — distinct
// from both success and ordinary failure so tests can tell an injected
// death from a crash.
const killExitCode = 3

// Worker-side reconnection tuning: how long a worker keeps redialling
// a lost coordinator before giving up, the dial backoff bounds, and
// the retransmit-buffer cap (outgrowing it means the coordinator has
// stopped acking — a wedged star, not a slow one).
const (
	redialWindow     = 15 * time.Second
	redialBackoffMin = 25 * time.Millisecond
	redialBackoffMax = time.Second
	workerMaxUnacked = 4096
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
}

// wlink is the worker's self-healing coordinator link. Writers block
// while the link is down and the reader owns redial: on a connection
// error it re-dials with exponential backoff inside redialWindow,
// re-HELLOs with its receive cursor, takes the coordinator's welcome
// (the coordinator's receive cursor), replays every sequenced frame
// the coordinator never acked, and only then wakes the writers. With
// reconnection disabled (or a sever-rank fault) the first break is
// terminal.
type wlink struct {
	rank          int
	network, addr string

	mu         sync.Mutex
	cond       *sync.Cond
	c          *conn // nil while down
	err        error // terminal: the link is gone for good
	reconnect  bool
	sendSeq    uint32
	unacked    []savedFrame
	lastRecv   uint32
	holdUntil  time.Time // flap-rank outage: no redial before this
	reconnects int

	// wedged simulates a worker whose link servicing died while the
	// process lives: reads, pongs and sends all stop.
	wedged atomic.Bool
}

func newWLink(rank int, network, addr string, reconnect bool) *wlink {
	l := &wlink{rank: rank, network: network, addr: addr, reconnect: reconnect}
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
	if err := c.write(frameHello, 0, encodeHello(l.rank, 0, 0)); err != nil {
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

// write sends one frame. Sequenced frames are reliable: they enter the
// retransmit buffer before the first attempt, so a send that breaks
// mid-flight is simply replayed by the reader's redial — the caller
// sees success, exactly-once delivery is the seq/ack layer's job.
// Unsequenced frames are best-effort. Returns the terminal link error
// once the link is gone for good.
func (l *wlink) write(kind byte, body []byte) error {
	l.stallIfWedged()
	isSeq := sequenced(kind)
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
	var seq uint32
	if isSeq {
		l.sendSeq++
		seq = l.sendSeq
		l.unacked = append(l.unacked, savedFrame{seq: seq, kind: kind, body: body})
		if len(l.unacked) > workerMaxUnacked {
			err := fmt.Errorf("cluster: rank %d: %d frames unacked, coordinator not acking", l.rank, len(l.unacked))
			l.err = err
			l.cond.Broadcast()
			l.mu.Unlock()
			c.Close()
			return err
		}
		// Sequenced frames must hit the socket in seq order, so the
		// write happens under the link lock; senders racing here would
		// otherwise interleave as receive-side sequence gaps.
		werr := c.write(kind, seq, body)
		l.mu.Unlock()
		if werr != nil {
			l.broken(c, werr)
			l.mu.Lock()
			terr := l.err
			l.mu.Unlock()
			return terr // nil when the redial will replay it
		}
		return nil
	}
	l.mu.Unlock()
	if err := c.write(kind, seq, body); err != nil {
		l.broken(c, err)
		l.mu.Lock()
		terr := l.err
		l.mu.Unlock()
		if terr != nil {
			return terr
		}
		// Sequenced: the redial replays it. Unsequenced: pings and acks
		// are periodic, losing one is fine.
		return nil
	}
	return nil
}

// broken marks c dead. The reader owns redial; writers just step
// aside. With reconnection off the first break is the terminal error.
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
// or the terminal error once the link is gone for good (reconnection
// disabled, or the window exhausted).
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
// re-HELLO with our receive cursor, read the welcome, trim and replay
// the retransmit buffer, install the conn, wake the writers.
func (l *wlink) resume(nc net.Conn) (*conn, error) {
	c := newConn(nc)
	l.mu.Lock()
	lastRecv := l.lastRecv
	l.mu.Unlock()
	if err := c.write(frameHello, 0, encodeHello(l.rank, helloFlagReconnect, lastRecv)); err != nil {
		nc.Close()
		return nil, err
	}
	_ = nc.SetReadDeadline(time.Now().Add(welcomeDeadline))
	kind, _, body, err := c.read()
	if err != nil || kind != frameWelcome {
		nc.Close()
		return nil, fmt.Errorf("cluster: rank %d waiting for welcome: kind %d, %v", l.rank, kind, err)
	}
	_ = nc.SetReadDeadline(time.Time{})
	coordRecv, err := decodeSeq(body)
	if err != nil {
		nc.Close()
		return nil, err
	}
	l.mu.Lock()
	l.unacked = trimAcked(l.unacked, coordRecv)
	for _, f := range l.unacked {
		_ = c.queue(f.kind, f.seq, f.body) // sticky: the flush reports it
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

// accept applies receive-side sequencing to an incoming frame:
// process reports whether to handle it (false for a replayed
// duplicate), ackNow whether the cumulative ack is due, and err a
// protocol violation (a gap can only mean a broken retransmit layer).
func (l *wlink) accept(seq uint32) (process, ackNow bool, err error) {
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

// ackSent trims the retransmit buffer by the peer's cumulative ack and
// wakes awaitAcked once nothing is left outstanding.
func (l *wlink) ackSent(seq uint32) {
	l.mu.Lock()
	l.unacked = trimAcked(l.unacked, seq)
	if len(l.unacked) == 0 {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// recvCursor is the highest sequenced frame processed so far.
func (l *wlink) recvCursor() uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastRecv
}

// awaitAcked lingers until the coordinator has acked everything (the
// report and bye, in practice), the link died, or the timeout passed.
// Exiting with the report unacked risks the coordinator reading a
// death instead of a result.
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
	// ackSent and every terminal-error path broadcast on the cond.
	for len(l.unacked) > 0 && l.err == nil && !timedOut {
		l.cond.Wait()
	}
}

// starTransport ships a cluster data message as one frame to the
// coordinator, which routes it to the destination PE's owner.
type starTransport struct{ l *wlink }

func (t *starTransport) SendRemote(kind nativeeden.MsgKind, chanID int64, src, dst int, payload []byte) error {
	return t.l.write(frameData, encodeData(kind, chanID, src, dst, payload))
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
	reconnect := os.Getenv(envReconnect) == "1"

	l := newWLink(rank, network, os.Getenv(envAddr), reconnect)
	if err := l.dial(); err != nil {
		return err
	}
	c0 := l.current()
	kind, _, _, err := c0.read()
	if err != nil || kind != frameGo {
		return fmt.Errorf("cluster: rank %d waiting for go: kind %d, %v", rank, kind, err)
	}

	// Self-applied cluster faults: kill-rank dies abruptly mid-run,
	// sever-rank cuts the link for good, flap-rank cuts it transiently
	// (the redial heals it), wedge-rank goes silent without dying. The
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

	cfg := nativeeden.Config{
		EventLog: os.Getenv(envEventLog) == "1",
		Cluster: &nativeeden.ClusterSpec{
			Rank: rank, Procs: procs, PerProc: perProc,
			Transport: &starTransport{l: l},
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

	// The reader drains the control connection for the whole run: data
	// frames deliver into the local PEs, drain unwinds the run, pings
	// are answered, acks trim the retransmit buffer — and a broken
	// connection triggers the redial instead of aborting, unless the
	// link is terminally gone.
	go func() {
		for {
			c := l.current()
			if c == nil {
				var rerr error
				if c, rerr = l.redial(nil, errors.New("connection reset")); rerr != nil {
					rts.Fail(fmt.Errorf("cluster: rank %d lost coordinator: %w", rank, rerr))
					return
				}
			}
			kind, seq, body, err := c.read()
			if err != nil {
				var rerr error
				if _, rerr = l.redial(c, err); rerr != nil {
					rts.Fail(fmt.Errorf("cluster: rank %d lost coordinator: %w", rank, rerr))
					return
				}
				continue
			}
			l.stallIfWedged()
			process, ackNow, serr := l.accept(seq)
			if serr != nil {
				rts.Fail(serr)
				return
			}
			if ackNow {
				_ = c.write(frameAck, 0, encodeSeq(seq))
			}
			if !process {
				continue
			}
			switch kind {
			case frameData:
				mk, chanID, src, dst, payload, derr := decodeData(body)
				if derr == nil {
					derr = rts.Deliver(mk, chanID, src, dst, payload)
				}
				if derr != nil {
					rts.Fail(derr)
				}
			case frameDrain:
				rts.Drain()
			case framePing:
				nanos, ack, perr := decodePing(body)
				if perr == nil {
					l.ackSent(ack)
					_ = c.write(framePong, 0, encodePing(nanos, l.recvCursor()))
				}
			case frameAck:
				if s, aerr := decodeSeq(body); aerr == nil {
					l.ackSent(s)
				}
			}
		}
	}()

	res, runErr := rts.RunMain(prog)
	drained := errors.Is(runErr, nativeeden.ErrDrained)

	rep := workerReport{Rank: rank, Drained: drained}
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
