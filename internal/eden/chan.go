package eden

import (
	"fmt"

	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/trace"
)

// PCtx is the execution context of an Eden process thread: the generic
// runtime context plus the Eden coordination operations (channels,
// streams, process instantiation). It implements pe.Ctx, so skeletons
// and workload programs written against the backend-neutral interface
// run on the simulator unchanged.
type PCtx struct {
	*rts.Ctx
	rts *RTS
}

var _ pe.Ctx = (*PCtx)(nil)

// PE returns the index of the PE this process thread is running on.
func (p *PCtx) PE() int { return p.Cap().Index }

// PEs returns the total number of processing elements.
func (p *PCtx) PEs() int { return len(p.rts.pes) }

// AddResident declares long-lived heap data on the current PE (e.g. an
// input matrix block), included in its local GC live-data estimate.
func (p *PCtx) AddResident(bytes int64) {
	p.rts.pe(p.Cap()).resident += bytes
}

// Spawn instantiates a process on the given PE (modulo the PE count):
// the remote runtime creates a thread running body. The instantiation
// cost is charged to the caller and the creation message takes the
// transport latency to arrive, as in Eden's remote process creation.
func (p *PCtx) Spawn(dest int, name string, body func(pe.Ctx)) {
	r := p.rts
	dest = ((dest % len(r.pes)) + len(r.pes)) % len(r.pes)
	p.Burn(p.Cap().Costs.ProcessCreate)
	r.stats.Processes++
	target := r.pes[dest]
	r.sim.After(p.Cap().Costs.MsgLatency, func() {
		th := target.cap.NewThread(name, func(ctx *rts.Ctx) {
			body(&PCtx{Ctx: ctx, rts: r})
		})
		target.cap.Enqueue(th)
	})
}

// ForkLocal starts an additional thread of the current process on the
// same PE (Eden evaluates tuple components in independent threads; this
// is the primitive those use).
func (p *PCtx) ForkLocal(name string, body func(pe.Ctx)) {
	r := p.rts
	p.Fork(name, func(ctx *rts.Ctx) {
		body(&PCtx{Ctx: ctx, rts: r})
	})
}

// --- Single-value channels ---

// Inport is the receiving end of a one-value channel, owned by a PE.
type Inport struct {
	id   int64
	pe   int
	cell *graph.Thunk
}

// InPE implements pe.Inport.
func (in *Inport) InPE() int { return in.pe }

// PackedSize implements Sized: a port packs as a wire header plus its
// {channel id, PE} words — the heap cell it names stays behind.
func (in *Inport) PackedSize() int64 { return 24 }

// DeepCopy implements Sized: a port is shared, like the simulator's
// messages.
func (in *Inport) DeepCopy() (graph.Value, error) { return in, nil }

// Outport is the sending end of a one-value channel.
type Outport struct {
	id   int64
	dest int
	cell *graph.Thunk
}

// OutPE implements pe.Outport.
func (out *Outport) OutPE() int { return out.dest }

// PackedSize implements Sized.
func (out *Outport) PackedSize() int64 { return 24 }

// DeepCopy implements Sized.
func (out *Outport) DeepCopy() (graph.Value, error) { return out, nil }

// NewChan creates a one-value channel whose receiving end lives on PE
// dest. The creator is charged the channel setup cost.
func (p *PCtx) NewChan(dest int) (pe.Inport, pe.Outport) {
	p.Burn(p.Cap().Costs.ChanCreate)
	id := p.rts.nextChan()
	cell := graph.NewPlaceholder()
	return &Inport{id: id, pe: dest, cell: cell}, &Outport{id: id, dest: dest, cell: cell}
}

// Send reduces v to normal form, packs it, and ships it to the channel's
// destination PE. Each channel carries exactly one value. A value that
// still contains unevaluated graph is a normal-form violation: Send
// panics with a *SendError naming the channel, the sending PE and the
// thunk state.
func (p *PCtx) Send(out pe.Outport, v graph.Value) {
	o := out.(*Outport)
	nf := p.ForceDeep(v)
	bytes, err := SizeOfChecked(nf)
	if err != nil {
		panic(&SendError{Op: "Send", Chan: o.id, PE: p.PE(), Dest: o.dest, Err: err})
	}
	p.sendPacket(o.dest, o.cell, nf, bytes)
}

// Receive forces the channel's placeholder; it must be called on the
// channel's owning PE and blocks until the value has arrived.
func (p *PCtx) Receive(in pe.Inport) graph.Value {
	i := in.(*Inport)
	if i.pe != p.PE() {
		panic(fmt.Sprintf("eden: Receive on PE %d for a channel owned by PE %d (channels are single-reader)", p.PE(), i.pe))
	}
	return p.Force(i.cell)
}

// --- Stream channels (top-level lists, sent element by element) ---

// Cons is one transmitted stream element: the head value plus the
// placeholder for the rest of the stream.
type Cons struct {
	Head graph.Value
	Tail *graph.Thunk
}

// Nil terminates a stream.
type Nil struct{}

// StreamIn is the receiving end of a stream channel.
type StreamIn struct {
	id  int64
	pe  int
	cur *graph.Thunk
}

// StreamInPE implements pe.StreamIn.
func (in *StreamIn) StreamInPE() int { return in.pe }

// PackedSize implements Sized.
func (in *StreamIn) PackedSize() int64 { return 24 }

// DeepCopy implements Sized.
func (in *StreamIn) DeepCopy() (graph.Value, error) { return in, nil }

// StreamOut is the sending end of a stream channel.
type StreamOut struct {
	id   int64
	dest int
	cur  *graph.Thunk
}

// StreamOutPE implements pe.StreamOut.
func (out *StreamOut) StreamOutPE() int { return out.dest }

// PackedSize implements Sized.
func (out *StreamOut) PackedSize() int64 { return 24 }

// DeepCopy implements Sized.
func (out *StreamOut) DeepCopy() (graph.Value, error) { return out, nil }

// NewStream creates a stream channel whose receiving end lives on PE
// dest.
func (p *PCtx) NewStream(dest int) (pe.StreamIn, pe.StreamOut) {
	p.Burn(p.Cap().Costs.ChanCreate)
	id := p.rts.nextChan()
	cell := graph.NewPlaceholder()
	return &StreamIn{id: id, pe: dest, cur: cell}, &StreamOut{id: id, dest: dest, cur: cell}
}

// StreamSend transmits one element: the head is reduced to normal form
// and sent as its own message (Eden's element-by-element list
// communication). Like Send, it panics with a *SendError when the
// element is not in normal form.
func (p *PCtx) StreamSend(out pe.StreamOut, v graph.Value) {
	o := out.(*StreamOut)
	nf := p.ForceDeep(v)
	bytes, err := SizeOfChecked(nf)
	if err != nil {
		panic(&SendError{Op: "StreamSend", Chan: o.id, PE: p.PE(), Dest: o.dest, Err: err})
	}
	next := graph.NewPlaceholder()
	p.sendPacket(o.dest, o.cur, Cons{Head: nf, Tail: next}, bytes+consOverhead)
	o.cur = next
}

// StreamClose terminates the stream; the receiver's next StreamRecv
// reports ok=false.
func (p *PCtx) StreamClose(out pe.StreamOut) {
	o := out.(*StreamOut)
	p.sendPacket(o.dest, o.cur, Nil{}, consOverhead)
	o.cur = nil
}

// StreamRecv receives the next element, blocking until it arrives;
// ok is false when the stream has been closed.
func (p *PCtx) StreamRecv(in pe.StreamIn) (v graph.Value, ok bool) {
	i := in.(*StreamIn)
	if i.pe != p.PE() {
		panic(fmt.Sprintf("eden: StreamRecv on PE %d for a stream owned by PE %d", p.PE(), i.pe))
	}
	switch x := p.Force(i.cur).(type) {
	case Cons:
		i.cur = x.Tail
		return x.Head, true
	case Nil:
		return nil, false
	default:
		panic(fmt.Sprintf("eden: malformed stream cell %T", x))
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
	for _, x := range xs {
		p.StreamSend(out, x)
	}
	p.StreamClose(out)
}

// sendPacket packs a value (charging the per-message + per-byte cost to
// the sender) and hands it to the transport.
func (p *PCtx) sendPacket(dest int, cell *graph.Thunk, val graph.Value, bytes int64) {
	costs := p.Cap().Costs
	p.Cap().SetState(trace.Comm)
	p.Burn(costs.MsgFixed + int64(costs.MsgPerByte*float64(bytes)))
	p.Cap().SetState(trace.Run)
	r := p.rts
	r.stats.Messages++
	r.stats.BytesSent += bytes
	r.deliver(dest, message{cell: cell, val: val, bytes: bytes})
}

// LocalResolve fills a placeholder that lives on the current PE without
// going through the transport: an intra-process synchronisation variable
// (MVar-like), used by skeletons to join local collector threads.
func (p *PCtx) LocalResolve(cell *graph.Thunk, v graph.Value) {
	ws := cell.Resolve(v)
	p.Cap().WakeWaiterList(ws)
}

// Await forces a local placeholder (blocking until LocalResolve or a
// message fills it).
func (p *PCtx) Await(cell *graph.Thunk) graph.Value { return p.Force(cell) }
