package nativeeden

import (
	"fmt"
	"time"

	"parhask/internal/eden"
	"parhask/internal/eventlog"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/pe"
)

// PCtx is the native backend's pe.Ctx: the context an Eden thread runs
// against. The thread holds its PE's mutex for its entire execution —
// every method below may assume the lock is held, and the blocking and
// transport operations are the only places it is released.
type PCtx struct {
	rts  *RTS
	pe   *peRT
	name string

	// isRoot marks the program's root thread: in cluster mode its
	// channel ids come from the replayed counter and its remote spawns
	// are the SPMD no-op (the owning process instantiates them).
	isRoot bool
	// shadow marks a cluster shadow root (rank != 0): creations replay,
	// sends are no-ops, receives park (see cluster.go).
	shadow bool

	// claims is the stack of thunks this thread has eagerly black-holed
	// and not yet updated. On panic runThread poisons them (newest
	// first) so peers blocked on them unblock into the failure path.
	claims graph.Claims
}

var (
	_ pe.Ctx        = (*PCtx)(nil)
	_ graph.Context = (*PCtx)(nil)
)

// begin is the thread prologue, run under the PE lock: counters, the
// Run bracket, and — for every thread but the root — thread-start fault
// injection (stalled PE, injected process panic).
func (p *PCtx) begin() {
	p.pe.ctr.Threads++
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.RunBegin)
	}
	if inj := p.rts.cfg.Faults; inj != nil && !p.isRoot {
		p.injectThreadStart(inj)
	}
}

// end is the thread epilogue (still under the PE lock).
func (p *PCtx) end() {
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.RunEnd)
	}
}

// injectThreadStart applies thread-start faults: a stalled PE sleeps
// holding its lock (a genuinely slow PE — its sibling threads stall
// with it), then an injected process panic fires if this thread's
// index is in the plan.
func (p *PCtx) injectThreadStart(inj *faults.Injector) {
	if d := inj.StallDur(p.pe.id); d > 0 {
		inj.NoteStall()
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.StallBegin)
		}
		time.Sleep(d)
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.StallEnd)
		}
	}
	if f := inj.ProcFault(); f != nil {
		if p.pe.ev != nil {
			p.pe.ev.EmitArg(eventlog.FaultPanic, int32(f.Index))
		}
		panic(f)
	}
}

// Ports are plain {channel id, PE} value structs: shipping or capturing
// one moves no heap, so a port crossing PEs (in a message or a spawned
// closure) can never leak a thunk between heaps. The cells they name
// live in the owning PE's registry.

// Inport is the receiving end of a one-value channel.
type Inport struct {
	id int64
	pe int
}

// InPE returns the PE that owns the receiving end.
func (i Inport) InPE() int { return i.pe }

// PackedSize implements eden.Sized: a port packs as a wire header plus
// its {channel id, PE} words.
func (i Inport) PackedSize() int64 { return portPackedSize }

// DeepCopy implements eden.Sized: a port holds no indirection, so it
// is its own copy.
func (i Inport) DeepCopy() (graph.Value, error) { return i, nil }

// Outport is the sending end of a one-value channel.
type Outport struct {
	id   int64
	dest int
}

// OutPE returns the destination PE.
func (o Outport) OutPE() int { return o.dest }

// PackedSize implements eden.Sized.
func (o Outport) PackedSize() int64 { return portPackedSize }

// DeepCopy implements eden.Sized.
func (o Outport) DeepCopy() (graph.Value, error) { return o, nil }

// StreamIn is the receiving end of an element-by-element stream.
type StreamIn struct {
	id int64
	pe int
}

// StreamInPE returns the PE that owns the receiving end.
func (s StreamIn) StreamInPE() int { return s.pe }

// PackedSize implements eden.Sized.
func (s StreamIn) PackedSize() int64 { return portPackedSize }

// DeepCopy implements eden.Sized.
func (s StreamIn) DeepCopy() (graph.Value, error) { return s, nil }

// StreamOut is the sending end of an element-by-element stream.
type StreamOut struct {
	id   int64
	dest int
}

// StreamOutPE returns the destination PE.
func (s StreamOut) StreamOutPE() int { return s.dest }

// PackedSize implements eden.Sized.
func (s StreamOut) PackedSize() int64 { return portPackedSize }

// DeepCopy implements eden.Sized.
func (s StreamOut) DeepCopy() (graph.Value, error) { return s, nil }

// portPackedSize is the packed size of every port flavour: an 8-byte
// wire header plus the channel-id and PE words.
const portPackedSize = 24

// --- generic mutator operations (graph.Context + pe.Ctx) ---

// Burn is a no-op: real time is consumed by actually computing.
func (p *PCtx) Burn(ns int64) {}

// Alloc records the workload's declared allocation as per-PE telemetry
// (the virtual-cost hook has no cost here, but the byte count is the
// per-PE allocation story the head-to-head reports).
func (p *PCtx) Alloc(bytes int64) { p.pe.ctr.AllocBytes += bytes }

// Force evaluates a thunk to weak head normal form on this PE.
func (p *PCtx) Force(t *graph.Thunk) graph.Value { return graph.Force(p, t) }

// ForceDeep evaluates a value to normal form on this PE.
func (p *PCtx) ForceDeep(v graph.Value) graph.Value { return graph.ForceDeep(p, v) }

// EagerBlackholing is true: threads of one PE interleave at blocking
// points, so without the claim a thread blocking mid-thunk would let a
// sibling duplicate the evaluation.
func (p *PCtx) EagerBlackholing() bool { return true }

// BlackholeWriteCost is zero: the claim's cost is the real CAS.
func (p *PCtx) BlackholeWriteCost() int64 { return 0 }

// EnteredThunk / LeftThunk are no-ops (no lazy entry table).
func (p *PCtx) EnteredThunk(t *graph.Thunk) {}
func (p *PCtx) LeftThunk(t *graph.Thunk)    {}

// NoteDuplicateEntry cannot fire under the eager policy; nothing to do.
func (p *PCtx) NoteDuplicateEntry(t *graph.Thunk) {}

// NoteClaimed / NoteReleased track this thread's open eager claims —
// the thunks that must be poisoned if the thread dies mid-update.
func (p *PCtx) NoteClaimed(t *graph.Thunk) { p.claims.Push(t) }

func (p *PCtx) NoteReleased(t *graph.Thunk) { p.claims.Pop() }

// WakeThunkWaiters wakes the PE's blocked threads after an update.
func (p *PCtx) WakeThunkWaiters(t *graph.Thunk) { p.pe.cond.Broadcast() }

// BlockOnThunk suspends the thread on its PE's condvar until t is
// Evaluated (or Poisoned — graph.Force then raises the poison): the
// wait releases the PE lock, so sibling threads run — the big-lock
// analogue of the simulator's thread descheduling. The watchdog's
// blocked/progress counters bracket each wait, and the blocked-on
// record (what channel or stream this placeholder anchors, and which
// peer was expected to fill it) is published for deadlock diagnostics.
func (p *PCtx) BlockOnThunk(t *graph.Thunk) {
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.BlockBegin)
	}
	noted := false
	for {
		if s := t.State(); s == graph.Evaluated || s == graph.Poisoned {
			break
		}
		p.rts.latch.Check()
		if !noted {
			noted = true
			p.pe.blockedOn[p] = p.blockedRecord(t)
		}
		p.rts.blocked.Add(1)
		p.pe.cond.Wait()
		p.rts.blocked.Add(-1)
		p.rts.progress.Add(1)
	}
	if noted {
		delete(p.pe.blockedOn, p)
	}
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.BlockEnd)
	}
}

// blockedRecord classifies what placeholder t anchors on this PE — a
// one-value channel cell, a stream cell, or a plain local placeholder
// — for the deadlock watchdog's diagnostics. Linear scans are fine:
// this runs once per block, on the slow path.
func (p *PCtx) blockedRecord(t *graph.Thunk) faults.BlockedThread {
	b := faults.BlockedThread{PE: p.pe.id, Thread: p.name, Reason: "local", Chan: -1, Peer: -1}
	for id, c := range p.pe.cells {
		if c.t == t {
			b.Reason, b.Chan = "channel", id
			if c.origin != p.pe.id {
				b.Peer = c.origin
			}
			return b
		}
	}
	for id, st := range p.pe.streams {
		if st.cursor == t || st.tail == t {
			b.Reason, b.Chan = "stream", id
			if st.origin != p.pe.id {
				b.Peer = st.origin
			}
			return b
		}
	}
	return b
}

// --- PE identity and placement ---

// PE returns the index of the PE this thread runs on. A shadow root
// reports PE 0 — the PE the real root runs on — so the root program's
// placement arithmetic replays identically on every rank.
func (p *PCtx) PE() int {
	if p.shadow {
		return 0
	}
	return p.pe.id
}

// PEs returns the number of processing elements.
func (p *PCtx) PEs() int { return len(p.rts.pes) }

// AddResident declares long-lived heap data on the current PE.
func (p *PCtx) AddResident(bytes int64) { p.pe.ctr.Resident += bytes }

func (p *PCtx) norm(dest int) int {
	n := len(p.rts.pes)
	return ((dest % n) + n) % n
}

// Spawn instantiates a process on PE dest: a new thread (goroutine)
// whose execution serialises on the destination PE's lock. In cluster
// mode a spawn onto a remote PE is the SPMD no-op for the root thread
// — every rank replays main, and the rank owning dest instantiates the
// thread there — and unsupported elsewhere (non-root threads do not
// replay, so no process would run the body).
func (p *PCtx) Spawn(dest int, name string, body func(pe.Ctx)) {
	dest = p.norm(dest)
	if !p.rts.owned(dest) {
		if !p.isRoot {
			panic(fmt.Sprintf("nativeeden: cluster Spawn onto remote PE %d from non-root thread %q", dest, p.name))
		}
		return
	}
	p.rts.processes.Add(1)
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.Fork)
	}
	p.rts.startThread(p.rts.pes[dest], name, body)
}

// ForkLocal starts an additional thread of the current process on the
// same PE. A shadow root skips it: its local forks belong to rank 0.
func (p *PCtx) ForkLocal(name string, body func(pe.Ctx)) {
	if p.shadow {
		return
	}
	p.rts.startThread(p.pe, name, body)
}

// withPE runs f with dest's lock held (and, if dest is remote, this
// thread's own PE lock released — at most one PE lock is ever held, so
// transport cannot deadlock on lock order). Remote transport is thus a
// yield point for the sibling threads of this PE, matching the
// simulator's context-switch-at-communication granularity.
func (p *PCtx) withPE(dest int, f func(d *peRT)) {
	d := p.rts.pes[dest]
	if d == p.pe {
		f(d)
		return
	}
	p.pe.mu.Unlock()
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
		p.pe.mu.Lock()
	}()
	f(d)
}

// --- one-value channels ---

// NewChan creates a one-value channel whose receiving end (a heap
// placeholder) lives on PE dest. In cluster mode the cell is installed
// only when dest is local — ensure-on-first-touch, because a message
// may already have been delivered into it before this (replayed)
// creation runs; a remote owner's own replay, delivery, or receive
// installs it there.
func (p *PCtx) NewChan(dest int) (pe.Inport, pe.Outport) {
	dest = p.norm(dest)
	id := p.rts.newChanID(p.isRoot)
	origin := p.PE()
	if p.rts.owned(dest) {
		p.withPE(dest, func(d *peRT) {
			d.ensureCell(id, origin)
		})
	}
	return Inport{id: id, pe: dest}, Outport{id: id, dest: dest}
}

// injectSendFaults applies per-edge message faults at a comm point,
// called with this thread's own PE lock held after the message was
// packed and counted. A stalled PE sleeps holding its lock; a delayed
// message sleeps with the lock *released* (the PE stays responsive and
// per-edge FIFO order is preserved — the sender re-acquires before
// transport); a dropped message returns Drop and the caller skips
// delivery.
func (p *PCtx) injectSendFaults(dst int) faults.Fate {
	inj := p.rts.cfg.Faults
	if d := inj.StallDur(p.pe.id); d > 0 {
		inj.NoteStall()
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.StallBegin)
		}
		time.Sleep(d)
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.StallEnd)
		}
	}
	fate, delay := inj.MessageFate(p.pe.id, dst)
	switch fate {
	case faults.Delay:
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.DelayBegin)
		}
		p.pe.mu.Unlock()
		time.Sleep(delay)
		p.pe.mu.Lock()
		if p.pe.ev != nil {
			p.pe.ev.Emit(eventlog.DelayEnd)
		}
	case faults.Drop:
		if p.pe.ev != nil {
			p.pe.ev.EmitArg(eventlog.MsgDrop, int32(dst))
		}
	}
	return fate
}

// MsgKind discriminates the three Eden messages; a cluster transport
// ships it as the data frame's kind byte.
type MsgKind uint8

const (
	// MsgChanSend resolves a one-value channel's cell.
	MsgChanSend MsgKind = 1 + iota
	// MsgStreamSend appends one element to a stream.
	MsgStreamSend
	// MsgStreamClose terminates a stream (no payload).
	MsgStreamClose
)

// msgKinds gives each kind's operation name, for errors, and the bytes
// it is charged beyond its payload. A stream element and a close are
// both charged one stream cell's eden.ConsOverhead, as the simulator's
// StreamSend and StreamClose charge them.
var msgKinds = [...]struct {
	op    string
	extra int64
}{
	MsgChanSend:    {"Send", 0},
	MsgStreamSend:  {"StreamSend", eden.ConsOverhead},
	MsgStreamClose: {"StreamClose", eden.ConsOverhead},
}

// send is the one sending path of every Eden message. It reduces v to
// normal form and packs it — a deep copy charged with
// eden.SizeOfChecked in process, a wire encoding into a fresh frame
// across processes (wire.AppendEncode asserts the two sizes equal) —
// then counts the message, injects message faults and hands it on. The
// transport is the only fork: withPE runs the destination's receive, or
// the cluster transport ships the frame with this PE's lock released
// (the write may block on a real socket, so it is a yield point exactly
// like withPE). A close carries no value.
func (p *PCtx) send(kind MsgKind, id int64, dest int, v graph.Value) {
	if p.shadow {
		return // rank 0's real root does the real send
	}
	k := msgKinds[kind]
	if kind != MsgStreamClose {
		v = p.ForceDeep(v)
	}
	remote := !p.rts.owned(dest)
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.CommBegin)
	}
	bytes := k.extra
	var frame []byte
	var err error
	switch {
	case remote && kind == MsgStreamClose:
		frame = make([]byte, HeaderRoom)
	case remote:
		frame, err = EncodeFrame(v)
		bytes += int64(len(frame) - HeaderRoom)
	case kind != MsgStreamClose:
		var n int64
		if n, err = eden.SizeOfChecked(v); err == nil {
			v, err = eden.CopyChecked(v)
		}
		bytes += n
	}
	if err != nil {
		panic(&eden.SendError{Op: k.op, Chan: id, PE: p.pe.id, Dest: dest, Err: err})
	}
	p.pe.ctr.MsgsSent++
	p.pe.ctr.BytesSent += bytes
	if p.pe.ev != nil {
		p.pe.ev.EmitArg(eventlog.MsgSend, int32(dest))
	}
	src := p.pe.id
	switch {
	case p.rts.cfg.Faults != nil && p.injectSendFaults(dest) == faults.Drop:
		// dropped: nothing is delivered
	case remote:
		p.pe.mu.Unlock()
		err = p.rts.cfg.Cluster.Transport.SendRemote(kind, id, src, dest, frame)
		p.pe.mu.Lock()
		if err != nil {
			// A severed link surfaces as the ordinary structured send error
			// with the transport failure as its cause.
			panic(&eden.SendError{Op: k.op, Chan: id, PE: src, Dest: dest, Err: err})
		}
	default:
		p.withPE(dest, func(d *peRT) {
			if err := d.receive(kind, id, src, v, bytes, false); err != nil {
				panic(err)
			}
		})
	}
	if p.pe.ev != nil {
		p.pe.ev.Emit(eventlog.CommEnd)
	}
}

// receive is the one receiving path: it lands msg in this PE's heap —
// the channel's cell, or the stream's tail resolved to a Cons of msg
// and a fresh placeholder, or to Nil for a close — counts it and wakes
// the PE's threads. Caller holds d.mu. ensure installs a missing cell
// or stream, because a remote delivery may beat the replayed creation;
// a local send to a missing cell or a closed stream is misuse.
func (d *peRT) receive(kind MsgKind, id int64, src int, msg graph.Value, bytes int64, ensure bool) error {
	var cell *graph.Thunk
	if kind == MsgChanSend {
		c := d.cells[id]
		if c == nil && ensure {
			c = d.ensureCell(id, src)
		}
		if c == nil {
			return &eden.ChanMisuseError{Op: "Send", Chan: id, PE: src, Owner: d.id, Reason: "unknown-channel"}
		}
		cell = c.t
	} else {
		st := d.streams[id]
		if st == nil && ensure {
			st = d.ensureStream(id, src)
		}
		if st == nil || st.tail == nil {
			return &eden.ChanMisuseError{Op: msgKinds[kind].op, Chan: id, PE: src, Owner: d.id, Reason: "closed-or-unknown-stream"}
		}
		cell, st.tail = st.tail, nil
		if kind == MsgStreamSend {
			st.tail = d.arena.NewPlaceholder()
			msg = eden.Cons{Head: msg, Tail: st.tail}
		} else {
			msg = eden.Nil{}
		}
	}
	d.ctr.MsgsRecv++
	d.ctr.BytesRecv += bytes
	if d.ev != nil {
		d.ev.EmitArg(eventlog.MsgRecv, int32(src))
	}
	cell.Resolve(msg)
	d.cond.Broadcast()
	return nil
}

// Send reduces v to normal form, packs it (charging the same size model
// as the simulator), deep-copies it, and resolves the destination PE's
// placeholder with the copy. A normal-form violation panics with the
// same structured *eden.SendError the simulator raises.
func (p *PCtx) Send(out pe.Outport, v graph.Value) {
	o := out.(Outport)
	p.send(MsgChanSend, o.id, o.dest, v)
}

// Receive blocks until the channel's value has arrived; it must be
// called on the channel's owning PE (channels are single-reader).
func (p *PCtx) Receive(in pe.Inport) graph.Value {
	if p.shadow {
		p.parkForever() // the real root receives; unwinds on drain
		return nil
	}
	i := in.(Inport)
	if i.pe != p.pe.id {
		panic(&eden.ChanMisuseError{Op: "Receive", Chan: i.id, PE: p.pe.id, Owner: i.pe, Reason: "cross-pe"})
	}
	cell, ok := p.pe.cells[i.id]
	if !ok {
		if p.rts.cfg.Cluster != nil {
			// A cross-process channel may be received before either its
			// replayed creation or its first delivery installed the cell:
			// ensure it and block. (The already-received misuse check
			// degrades to a coordinator-deadline timeout in cluster mode.)
			cell = p.pe.ensureCell(i.id, -1)
		} else {
			// One-value channels are consumed on receive, so a second
			// Receive and a receive on a never-created channel look the same.
			panic(&eden.ChanMisuseError{Op: "Receive", Chan: i.id, PE: p.pe.id, Owner: -1, Reason: "already-received"})
		}
	}
	v := p.Force(cell.t)
	delete(p.pe.cells, i.id)
	return v
}

// --- stream channels (top-level lists, sent element by element) ---

// NewStream creates a stream channel whose receiving end lives on PE
// dest: a placeholder chain anchored in the destination's registry.
// Cluster placement follows NewChan: local owners ensure, remote
// owners install on their own first touch.
func (p *PCtx) NewStream(dest int) (pe.StreamIn, pe.StreamOut) {
	dest = p.norm(dest)
	id := p.rts.newChanID(p.isRoot)
	origin := p.PE()
	if p.rts.owned(dest) {
		p.withPE(dest, func(d *peRT) {
			d.ensureStream(id, origin)
		})
	}
	return StreamIn{id: id, pe: dest}, StreamOut{id: id, dest: dest}
}

// StreamSend transmits one element as its own message: the current
// tail placeholder resolves to a Cons of the copied element and a
// fresh placeholder for the rest of the stream.
func (p *PCtx) StreamSend(out pe.StreamOut, v graph.Value) {
	o := out.(StreamOut)
	p.send(MsgStreamSend, o.id, o.dest, v)
}

// StreamClose terminates the stream (one Nil message).
func (p *PCtx) StreamClose(out pe.StreamOut) {
	o := out.(StreamOut)
	p.send(MsgStreamClose, o.id, o.dest, nil)
}

// StreamRecv receives the next element, blocking until it arrives; ok
// is false once the stream has been closed.
func (p *PCtx) StreamRecv(in pe.StreamIn) (graph.Value, bool) {
	if p.shadow {
		p.parkForever()
		return nil, false
	}
	i := in.(StreamIn)
	if i.pe != p.pe.id {
		panic(&eden.ChanMisuseError{Op: "StreamRecv", Chan: i.id, PE: p.pe.id, Owner: i.pe, Reason: "cross-pe"})
	}
	st := p.pe.streams[i.id]
	if st == nil {
		if p.rts.cfg.Cluster != nil {
			// Ensure-on-first-touch, as in Receive: the stream may not have
			// been installed yet by replay or delivery.
			st = p.pe.ensureStream(i.id, -1)
		} else {
			panic(&eden.ChanMisuseError{Op: "StreamRecv", Chan: i.id, PE: p.pe.id, Owner: -1, Reason: "unknown-stream"})
		}
	}
	switch c := p.Force(st.cursor).(type) {
	case eden.Cons:
		st.cursor = c.Tail
		return c.Head, true
	case eden.Nil:
		return nil, false
	default:
		panic(fmt.Sprintf("nativeeden: stream #%d cell resolved to %T, want Cons or Nil", i.id, c))
	}
}

// RecvAll drains a stream into a slice.
func (p *PCtx) RecvAll(in pe.StreamIn) []graph.Value {
	var out []graph.Value
	for {
		v, ok := p.StreamRecv(in)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// SendAll sends every element of xs and closes the stream.
func (p *PCtx) SendAll(out pe.StreamOut, xs []graph.Value) {
	if p.shadow {
		return
	}
	for _, x := range xs {
		p.StreamSend(out, x)
	}
	p.StreamClose(out)
}

// --- local synchronisation ---

// LocalResolve fills a placeholder on the current PE without the
// transport (an MVar-like intra-process synchronisation variable). A
// shadow root skips it: the placeholder belongs to rank 0's replay.
func (p *PCtx) LocalResolve(cell *graph.Thunk, v graph.Value) {
	if p.shadow {
		return
	}
	cell.Resolve(v)
	p.pe.cond.Broadcast()
}

// Await forces a local placeholder, blocking until it is filled. A
// shadow root parks: the value it would wait for lives on rank 0.
func (p *PCtx) Await(cell *graph.Thunk) graph.Value {
	if p.shadow {
		p.parkForever()
		return nil
	}
	return p.Force(cell)
}
