// Package pe defines the backend-neutral processing-element (PE)
// context of the Eden programming model: the interface an Eden process
// thread programs against, independent of which runtime executes it.
//
// Two backends implement it. The virtual-time simulator
// (internal/eden) runs PEs on the deterministic machine model with a
// full communication cost model; the native backend
// (internal/nativeeden) runs each PE as a real goroutine with its own
// private heap, measuring wall-clock time. Skeletons (internal/skel)
// and the workloads' Eden programs are written once against pe.Ctx and
// run unchanged on both — the backend-portability property the Eden
// literature's skeleton libraries rely on. Ctx is the whole surface:
// neither backend offers an optional extension a program could
// type-assert for, so no program needs a per-backend fallback.
//
// The port types are opaque interfaces: each backend supplies its own
// concrete channel representation (simulated mailboxes vs. real
// deep-copy delivery), and a port created on one backend is only valid
// on contexts of the same run.
package pe

import "parhask/internal/graph"

// Ctx is the execution context of an Eden process thread: the generic
// mutator operations (Burn/Alloc are virtual-cost hooks, no-ops on the
// native backend) plus Eden's coordination operations — process
// instantiation, one-value channels, element-by-element streams, and
// local placeholder synchronisation.
type Ctx interface {
	// Burn consumes virtual mutator time (native: no-op).
	Burn(ns int64)
	// Alloc accounts heap allocation (native: no-op).
	Alloc(bytes int64)
	// Force evaluates a thunk to weak head normal form on this PE.
	Force(t *graph.Thunk) graph.Value
	// ForceDeep evaluates a value to normal form on this PE.
	ForceDeep(v graph.Value) graph.Value

	// PE returns the index of the PE this thread runs on.
	PE() int
	// PEs returns the total number of processing elements.
	PEs() int
	// AddResident declares long-lived heap data on the current PE,
	// included in its local-GC live-data estimate (simulator) or its
	// resident-bytes telemetry (native).
	AddResident(bytes int64)

	// Spawn instantiates a process on PE dest (modulo the PE count): the
	// remote runtime creates a thread running body.
	Spawn(dest int, name string, body func(Ctx))
	// ForkLocal starts an additional thread of the current process on
	// the same PE.
	ForkLocal(name string, body func(Ctx))

	// NewChan creates a one-value channel whose receiving end lives on
	// PE dest.
	NewChan(dest int) (Inport, Outport)
	// Send reduces v to normal form and ships it to the channel's
	// destination PE. Each channel carries exactly one value.
	Send(out Outport, v graph.Value)
	// Receive blocks until the channel's value has arrived; it must be
	// called on the channel's owning PE.
	Receive(in Inport) graph.Value

	// NewStream creates a stream channel whose receiving end lives on
	// PE dest.
	NewStream(dest int) (StreamIn, StreamOut)
	// StreamSend transmits one element as its own message (Eden's
	// element-by-element list communication).
	StreamSend(out StreamOut, v graph.Value)
	// StreamClose terminates the stream; the receiver's next StreamRecv
	// reports ok=false.
	StreamClose(out StreamOut)
	// StreamRecv receives the next element, blocking until it arrives;
	// ok is false when the stream has been closed.
	StreamRecv(in StreamIn) (v graph.Value, ok bool)
	// RecvAll drains a stream into a slice.
	RecvAll(in StreamIn) []graph.Value
	// SendAll sends every element of xs and closes the stream.
	SendAll(out StreamOut, xs []graph.Value)

	// LocalResolve fills a placeholder that lives on the current PE
	// without going through the transport: an intra-process
	// synchronisation variable (MVar-like), used by skeletons to join
	// local collector threads.
	LocalResolve(cell *graph.Thunk, v graph.Value)
	// Await forces a local placeholder (blocking until LocalResolve or
	// an arriving message fills it).
	Await(cell *graph.Thunk) graph.Value
}

// Program is a backend-neutral Eden program body: the unit both the
// simulated eden.Run and the native nativeeden.Run execute as the root
// process on PE 0.
type Program func(Ctx) graph.Value

// Inport is the receiving end of a one-value channel, owned by a PE.
type Inport interface {
	// InPE returns the PE that owns the receiving end.
	InPE() int
}

// Outport is the sending end of a one-value channel.
type Outport interface {
	// OutPE returns the destination PE.
	OutPE() int
}

// StreamIn is the receiving end of an element-by-element stream.
type StreamIn interface {
	// StreamInPE returns the PE that owns the receiving end.
	StreamInPE() int
}

// StreamOut is the sending end of an element-by-element stream.
type StreamOut interface {
	// StreamOutPE returns the destination PE.
	StreamOutPE() int
}
