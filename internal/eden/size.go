package eden

import (
	"fmt"
	"reflect"
	"slices"

	"parhask/internal/graph"
)

// consOverhead is the packet overhead of one stream cell beyond its
// payload (tag + continuation channel id).
const consOverhead = 24

// ConsOverhead exports the stream-cell overhead for the native backend,
// which charges the same packing model to its bytes-shipped telemetry.
const ConsOverhead = consOverhead

// wordSize is the packed size of one scalar (value + tag), matching the
// graph-structure serialisation Eden uses.
const wordSize = 16

// Sized is the contract of a user-defined message type: it reports its
// packed size, so the communication cost model charges it exactly, and
// returns its own deep copy, so an in-process send hands the receiver a
// value that shares no mutable heap with the sender. DeepCopy returns
// a value of the receiver's own type: types with no indirection return
// themselves, the others clone with CloneSlice, CloneRows and, for
// nested values, CopyChecked. CopyChecked refuses a copy of another
// type: a pointer to a type with value methods is Sized through its
// method set but copies as the value, so send the value.
type Sized interface {
	PackedSize() int64
	DeepCopy() (graph.Value, error)
}

// UnevaluatedError reports that a value reached the packing layer while
// still containing unevaluated graph — a violation of Eden's
// normal-form-before-send rule. Send/StreamSend wrap it in a SendError
// that names the channel and PE.
type UnevaluatedError struct {
	// State is the offending thunk's evaluation state at packing time.
	State graph.EvalState
}

func (e *UnevaluatedError) Error() string {
	return fmt.Sprintf("unevaluated graph in message (thunk state %s); values must be in normal form before sending", e.State)
}

// SendError is the structured error for a failed channel send: which
// operation, on which channel, from which PE, and why. It is the
// diagnosable form of the bare panic SizeOf used to raise, so misuse of
// the native Eden backend names the exact port instead of only the
// thunk state.
type SendError struct {
	// Op is the failing operation ("Send" or "StreamSend").
	Op string
	// Chan is the channel id the failing port belongs to.
	Chan int64
	// PE is the sending PE.
	PE int
	// Dest is the channel's destination PE.
	Dest int
	// Err is the underlying packing error (an *UnevaluatedError).
	Err error
}

func (e *SendError) Error() string {
	return fmt.Sprintf("eden: %s on channel #%d (PE %d -> PE %d): %v", e.Op, e.Chan, e.PE, e.Dest, e.Err)
}

// Unwrap exposes the underlying packing error to errors.Is/As.
func (e *SendError) Unwrap() error { return e.Err }

// ChanMisuseError is the structured error for a channel-protocol
// violation: receiving on the wrong PE, consuming a one-value channel
// twice, or operating on an unknown or already-closed port. It replaces
// the bare string panics these misuses used to raise, so callers and
// the chaos soak can classify them with errors.As alongside SendError.
type ChanMisuseError struct {
	// Op is the violating operation ("Receive", "Send", "StreamSend",
	// "StreamClose", "StreamRecv").
	Op string
	// Chan is the channel or stream id.
	Chan int64
	// PE is the PE the violating thread ran on.
	PE int
	// Owner is the PE that owns the port's receiving end, or -1 when the
	// port is unknown to the runtime.
	Owner int
	// Reason classifies the violation: "cross-pe", "already-received",
	// "unknown-channel", "closed-or-unknown-stream", "unknown-stream".
	Reason string
}

func (e *ChanMisuseError) Error() string {
	if e.Owner >= 0 {
		return fmt.Sprintf("eden: %s on channel #%d from PE %d (owner PE %d): %s", e.Op, e.Chan, e.PE, e.Owner, e.Reason)
	}
	return fmt.Sprintf("eden: %s on channel #%d from PE %d: %s", e.Op, e.Chan, e.PE, e.Reason)
}

// UnsizedTypeError reports a message value that is neither a builtin
// message shape nor a Sized type, so the model can state neither its
// packed size nor its copy. Both SizeOfChecked and CopyChecked return
// it: a message is exactly what the two can handle.
type UnsizedTypeError struct {
	// Type is the offending value's dynamic type, rendered with %T.
	Type string
	// CopyType is set when Type is Sized but its DeepCopy returned a
	// value of this other type, which would change the message the
	// receiver sees.
	CopyType string
}

func (e *UnsizedTypeError) Error() string {
	if e.CopyType != "" {
		return fmt.Sprintf("eden: message type %s copies as %s; send a value whose DeepCopy returns its own type", e.Type, e.CopyType)
	}
	return fmt.Sprintf("eden: message type %s has no packed size or copy; implement eden.Sized (PackedSize, DeepCopy) to send it", e.Type)
}

// SizeOfChecked computes the packed size in bytes of a normal-form
// value — the byte count charged to the communication model and, in
// cluster mode, the exact length of the value's wire encoding. A value
// still containing unevaluated graph returns an *UnevaluatedError; a
// type with no size rule (maps, structs without PackedSize) returns an
// *UnsizedTypeError instead of silently under-charging one word.
func SizeOfChecked(v graph.Value) (int64, error) {
	switch x := v.(type) {
	case nil:
		return wordSize, nil
	case Sized:
		return x.PackedSize(), nil
	case bool, int, int32, int64, uint64, float32, float64:
		return wordSize, nil
	case string:
		return int64(len(x)) + wordSize, nil
	case []int:
		return int64(8*len(x)) + wordSize, nil
	case []int64:
		return int64(8*len(x)) + wordSize, nil
	case []int32:
		return int64(4*len(x)) + wordSize, nil
	case []float64:
		return int64(8*len(x)) + wordSize, nil
	case [][]float64:
		var n int64 = wordSize
		for _, row := range x {
			n += int64(8*len(row)) + wordSize
		}
		return n, nil
	case [][]int:
		var n int64 = wordSize
		for _, row := range x {
			n += int64(8*len(row)) + wordSize
		}
		return n, nil
	case [][]int32:
		var n int64 = wordSize
		for _, row := range x {
			n += int64(4*len(row)) + wordSize
		}
		return n, nil
	case []graph.Value:
		var n int64 = wordSize
		for _, e := range x {
			s, err := SizeOfChecked(e)
			if err != nil {
				return 0, err
			}
			n += s
		}
		return n, nil
	case Cons:
		s, err := SizeOfChecked(x.Head)
		if err != nil {
			return 0, err
		}
		if x.Tail != nil {
			// A cell sent as a value carries its tail, which CopyChecked
			// copies: charge it, and refuse it unevaluated.
			t, err := SizeOfChecked(x.Tail)
			if err != nil {
				return 0, err
			}
			s += t
		}
		return s + consOverhead, nil
	case Nil:
		return wordSize, nil
	case *graph.Thunk:
		if x.IsEvaluated() {
			// An evaluated thunk's payload is in normal form; size its
			// value (the graph serialisation ships the value node).
			return SizeOfChecked(x.Value())
		}
		return 0, &UnevaluatedError{State: x.State()}
	default:
		return 0, &UnsizedTypeError{Type: fmt.Sprintf("%T", v)}
	}
}

// SizeOf is SizeOfChecked for call sites that guarantee normal form; it
// panics with the structured *UnevaluatedError on unevaluated graph.
func SizeOf(v graph.Value) int64 {
	n, err := SizeOfChecked(v)
	if err != nil {
		panic(err)
	}
	return n
}

// CopyChecked returns a deep copy of a normal-form value that shares no
// mutable heap with v: the in-process stand-in for packing a message
// out of the sender's heap and unpacking it into the receiver's. Its
// cases are SizeOfChecked's. Scalars and strings are immutable once
// boxed and are shared; flat and row slices are cloned; a
// []graph.Value is copied element by element; an evaluated thunk
// becomes a fresh value around a copy of its payload and an unevaluated
// one is an *UnevaluatedError; a Sized type copies itself, and a copy
// whose dynamic type differs from v's is refused. Anything else is an
// *UnsizedTypeError naming the type.
func CopyChecked(v graph.Value) (graph.Value, error) {
	switch x := v.(type) {
	case nil, bool, int, int32, int64, uint64, float32, float64, string, Nil:
		return v, nil
	case Sized:
		c, err := x.DeepCopy()
		if err == nil && reflect.TypeOf(c) != reflect.TypeOf(v) {
			// Compares type words only; nothing is walked.
			return nil, &UnsizedTypeError{Type: fmt.Sprintf("%T", v), CopyType: fmt.Sprintf("%T", c)}
		}
		return c, err
	case []int:
		return CloneSlice(x), nil
	case []int64:
		return CloneSlice(x), nil
	case []int32:
		return CloneSlice(x), nil
	case []float64:
		return CloneSlice(x), nil
	case [][]float64:
		return CloneRows(x), nil
	case [][]int:
		return CloneRows(x), nil
	case [][]int32:
		return CloneRows(x), nil
	case []graph.Value:
		return CopyValues(x)
	case Cons:
		h, err := CopyChecked(x.Head)
		if err != nil {
			return nil, err
		}
		x.Head = h
		if x.Tail != nil {
			t, err := CopyChecked(x.Tail)
			if err != nil {
				return nil, err
			}
			x.Tail = t.(*graph.Thunk)
		}
		return x, nil
	case *graph.Thunk:
		if !x.IsEvaluated() {
			return nil, &UnevaluatedError{State: x.State()}
		}
		c, err := CopyChecked(x.Value())
		if err != nil {
			return nil, err
		}
		return graph.NewValue(c), nil
	default:
		return nil, &UnsizedTypeError{Type: fmt.Sprintf("%T", v)}
	}
}

// CopyValues copies a list of boxed values element by element with
// CopyChecked. Nil stays nil and empty stays empty.
func CopyValues(xs []graph.Value) ([]graph.Value, error) {
	if xs == nil {
		return nil, nil
	}
	out := make([]graph.Value, len(xs))
	for i, x := range xs {
		c, err := CopyChecked(x)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// CloneSlice returns a copy of a slice whose elements hold no
// indirection: one allocation and one move, with nothing zeroed first.
// Nil stays nil and empty stays empty.
func CloneSlice[S ~[]E, E any](s S) S {
	if s == nil {
		return nil
	}
	out := make(S, len(s))
	copy(out, s)
	return out
}

// CloneRows returns a copy of a slice of such rows in two allocations,
// however many rows it has: the row headers, and one backing array that
// holds every row's elements end to end. slices.Concat zeroes that
// array before it copies the rows in. Each row of the copy has its
// capacity capped at its length, so an append to one row reallocates
// instead of overwriting the next. Nil stays nil and empty stays empty,
// for the outer slice and for each row. A row of the copy that outlives
// the others keeps the whole backing array alive.
func CloneRows[S ~[]R, R ~[]E, E any](rows S) S {
	if rows == nil {
		return nil
	}
	flat := slices.Concat([]R(rows)...)
	if flat == nil {
		flat = R{} // every row is nil or empty; an empty one must stay non-nil
	}
	out := make(S, len(rows))
	off := 0
	for i, r := range rows {
		if r != nil {
			end := off + len(r)
			out[i] = flat[off:end:end]
			off = end
		}
	}
	return out
}
