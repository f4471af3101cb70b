// Package wire is the Eden value codec for cross-process sends: the
// serialisation that replaces nativeeden's in-process deep copy when
// PEs live in separate OS processes connected by sockets.
//
// Its defining property is that the encoding *is* the packing model:
// for every encodable value v, len(Encode(v)) == eden.SizeOfChecked(v),
// asserted on every encode. The simulator's byte accounting — one
// 16-byte word per scalar (an 8-byte type header plus an 8-byte
// payload), length-prefixed strings and slices, eden.Sized structs —
// stops being an estimate and becomes the actual bytes on the wire.
//
// Layout. Every value starts with an 8-byte header: a little-endian
// uint32 type tag plus a reserved uint32 (zero). Scalars follow with
// one 8-byte payload word; strings and slices with a uint64
// length/count and their elements; registered struct types with
// whatever their registered encoder writes (fields as 8-byte words,
// length-prefixed strings, packed element arrays, or nested values in
// this same format).
//
// Registration. Builtin Go types are handled directly. Named message
// types (skeleton packets, workload structs) register a static tag and
// an encode/decode pair from their own package's init, so unexported
// types stay unexported and the registry is populated exactly by the
// packages a program links. Tags are fixed constants — the wire format
// is stable across processes of the same binary, which is the only
// pairing the cluster runtime creates.
//
// Decoding never panics: truncated, corrupt or unknown input returns a
// structured *DecodeError (or the registered decoder's error), so a
// malformed frame is a diagnosable failure, not a crashed worker.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"parhask/internal/eden"
	"parhask/internal/graph"
)

// Builtin type tags. Registered (named) types must use tags >= TagUser.
const (
	tagInvalid uint32 = iota
	tagNilValue
	tagBool
	tagInt
	tagInt32
	tagInt64
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagIntSlice
	tagInt64Slice
	tagInt32Slice
	tagFloat64Slice
	tagFloat64Grid
	tagIntGrid
	tagInt32Grid
	tagValueSlice
	tagEdenNil

	// TagUser is the first tag available to Register.
	TagUser uint32 = 32
)

// Tag blocks assigned to the packages that register named types. Each
// package's wire.go documents its own constants; the blocks are listed
// here so a new registration picks a free tag.
//
//	32..39   free
//	40..47   internal/skel
//	48..55   internal/workloads/euler
//	56..63   internal/workloads/apsp
//	64..71   internal/workloads/matmul
//	72..79   internal/nativeeden (ports)

// EncodeError reports a value the codec cannot encode: a type with no
// builtin rule and no registered codec.
type EncodeError struct {
	// Type is the offending value's dynamic type, rendered with %T.
	Type string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("wire: no codec registered for message type %s", e.Type)
}

// SizeMismatchError reports that a value's encoding came out a
// different length than eden.SizeOfChecked promised — a bug in a
// PackedSize implementation or a registered encoder, surfaced at the
// send that would have shipped the wrong byte count.
type SizeMismatchError struct {
	Type      string
	Got, Want int64
}

func (e *SizeMismatchError) Error() string {
	return fmt.Sprintf("wire: %s encoded to %d bytes but eden.SizeOfChecked charges %d; its PackedSize and codec disagree", e.Type, e.Got, e.Want)
}

// DecodeError is the structured failure for malformed wire input:
// truncation, an unknown tag, an implausible count, or trailing bytes.
type DecodeError struct {
	// Off is the byte offset the decoder had reached.
	Off int
	// Reason says what was wrong there.
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: malformed message at byte %d: %s", e.Off, e.Reason)
}

// EncFunc encodes one value of a registered type. The header has
// already been written; the function appends the payload via the Enc
// helpers.
type EncFunc func(e *Enc, v graph.Value) error

// DecFunc decodes one value of a registered type. The header has
// already been consumed; the function must return a value of exactly
// the registered dynamic type.
type DecFunc func(d *Dec) (graph.Value, error)

type codec struct {
	tag uint32
	typ reflect.Type
	enc EncFunc
	dec DecFunc
}

var (
	byTag  = map[uint32]*codec{}
	byType = map[reflect.Type]*codec{}
)

// Register installs the codec for one named message type, keyed by
// proto's dynamic type; proto is an eden.Sized, so a type cannot be
// shipped without its packed size and its in-process copy. Tags are
// static per type and must be >= TagUser and unique; collisions panic
// at init time (a build misconfiguration, not a runtime condition).
func Register(tag uint32, proto eden.Sized, enc EncFunc, dec DecFunc) {
	if tag < TagUser {
		panic(fmt.Sprintf("wire: tag %d for %T collides with the builtin range", tag, proto))
	}
	t := reflect.TypeOf(proto)
	if t == nil {
		panic("wire: cannot register the nil interface")
	}
	if prev, ok := byTag[tag]; ok {
		panic(fmt.Sprintf("wire: tag %d registered twice (%v and %v)", tag, prev.typ, t))
	}
	if _, ok := byType[t]; ok {
		panic(fmt.Sprintf("wire: type %v registered twice", t))
	}
	c := &codec{tag: tag, typ: t, enc: enc, dec: dec}
	byTag[tag] = c
	byType[t] = c
}

// RegisteredProtos returns one zero-ish prototype per registered named
// type (test support: the round-trip property suite iterates these).
func RegisteredProtos() []graph.Value {
	out := make([]graph.Value, 0, len(byType))
	for t := range byType {
		out = append(out, reflect.Zero(t).Interface())
	}
	return out
}

// Encode packs v into a fresh buffer: AppendEncode(nil, v).
func Encode(v graph.Value) ([]byte, error) { return AppendEncode(nil, v) }

// AppendEncode appends v's wire form to dst and returns the extended
// slice. It grows dst at most once, by exactly the encoding's size, so
// a caller that reserves a header in front of the payload (the cluster
// transport's data frame) gets one buffer holding both and never copies
// the encoding. The byte count is asserted against the packing model:
// the bytes appended always number eden.SizeOfChecked(v). Any
// disagreement between a type's PackedSize and its codec is returned
// as a *SizeMismatchError at the first send instead of silently
// skewing the byte telemetry.
func AppendEncode(dst []byte, v graph.Value) ([]byte, error) {
	want, err := eden.SizeOfChecked(v)
	if err != nil {
		return dst, err
	}
	// Registered encoders take the *Enc through a function value, so an
	// Enc always escapes; pooling it keeps the buffer the only
	// allocation of an encode.
	e := encPool.Get().(*Enc)
	e.b = dst
	if cap(dst)-len(dst) < int(want) {
		e.b = make([]byte, len(dst), len(dst)+int(want))
		copy(e.b, dst)
	}
	err = e.Value(v)
	out := e.b
	e.b = nil
	encPool.Put(e)
	if err != nil {
		return dst, err
	}
	if got := int64(len(out) - len(dst)); got != want {
		return dst, &SizeMismatchError{Type: fmt.Sprintf("%T", v), Got: got, Want: want}
	}
	return out, nil
}

var encPool = sync.Pool{New: func() any { return new(Enc) }}

// Decode is the inverse of Encode: it rebuilds the value (with its
// exact dynamic type) from b, consuming all of it. Malformed input —
// truncated, trailing bytes, unknown tags, implausible counts —
// returns a structured error and never panics.
func Decode(b []byte) (graph.Value, error) {
	d := &Dec{b: b}
	v, err := d.Value()
	if err != nil {
		return nil, err
	}
	if d.off != len(d.b) {
		return nil, &DecodeError{Off: d.off, Reason: fmt.Sprintf("%d trailing bytes", len(d.b)-d.off)}
	}
	return v, nil
}

// --- encoder ---

// Enc accumulates one value's wire bytes. Registered encoders use its
// helpers so every field follows the shared layout rules.
type Enc struct {
	b []byte
}

func (e *Enc) hdr(tag uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, tag)
	e.b = binary.LittleEndian.AppendUint32(e.b, 0)
}

// U64 appends one unsigned 8-byte word.
func (e *Enc) U64(x uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, x) }

// I64 appends one signed 8-byte word.
func (e *Enc) I64(x int64) { e.U64(uint64(x)) }

// F64 appends one float64 word.
func (e *Enc) F64(x float64) { e.U64(math.Float64bits(x)) }

// Str appends a length-prefixed string (8-byte length + raw bytes).
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Pad appends n zero bytes (reserved words in fixed-size layouts whose
// PackedSize predates the codec).
func (e *Enc) Pad(n int) {
	for i := 0; i < n; i++ {
		e.b = append(e.b, 0)
	}
}

// I32s appends a packed int32 array: an 8-byte count plus 4 bytes per
// element (8 + 4n bytes total, the layout pivot rows are charged at).
func (e *Enc) I32s(xs []int32) {
	e.U64(uint64(len(xs)))
	for _, x := range xs {
		e.b = binary.LittleEndian.AppendUint32(e.b, uint32(x))
	}
}

// F64s appends a packed float64 array (8-byte count + 8 bytes per
// element).
func (e *Enc) F64s(xs []float64) {
	e.U64(uint64(len(xs)))
	for _, x := range xs {
		e.F64(x)
	}
}

// I64s appends a packed int64 array.
func (e *Enc) I64s(xs []int64) {
	e.U64(uint64(len(xs)))
	for _, x := range xs {
		e.I64(x)
	}
}

// Value appends one complete nested value (header + payload) at its
// full packed size.
func (e *Enc) Value(v graph.Value) error {
	switch x := v.(type) {
	case nil:
		e.hdr(tagNilValue)
		e.U64(0)
	case bool:
		e.hdr(tagBool)
		if x {
			e.U64(1)
		} else {
			e.U64(0)
		}
	case int:
		e.hdr(tagInt)
		e.I64(int64(x))
	case int32:
		e.hdr(tagInt32)
		e.I64(int64(x))
	case int64:
		e.hdr(tagInt64)
		e.I64(x)
	case uint64:
		e.hdr(tagUint64)
		e.U64(x)
	case float32:
		e.hdr(tagFloat32)
		e.U64(uint64(math.Float32bits(x)))
	case float64:
		e.hdr(tagFloat64)
		e.F64(x)
	case string:
		e.hdr(tagString)
		e.Str(x)
	case []int:
		e.hdr(tagIntSlice)
		e.U64(uint64(len(x)))
		for _, n := range x {
			e.I64(int64(n))
		}
	case []int64:
		e.hdr(tagInt64Slice)
		e.I64s(x)
	case []int32:
		e.hdr(tagInt32Slice)
		e.I32s(x)
	case []float64:
		e.hdr(tagFloat64Slice)
		e.F64s(x)
	case [][]float64:
		e.hdr(tagFloat64Grid)
		e.U64(uint64(len(x)))
		for _, row := range x {
			if err := e.Value(row); err != nil {
				return err
			}
		}
	case [][]int:
		e.hdr(tagIntGrid)
		e.U64(uint64(len(x)))
		for _, row := range x {
			if err := e.Value(row); err != nil {
				return err
			}
		}
	case [][]int32:
		e.hdr(tagInt32Grid)
		e.U64(uint64(len(x)))
		for _, row := range x {
			if err := e.Value(row); err != nil {
				return err
			}
		}
	case []graph.Value:
		e.hdr(tagValueSlice)
		e.U64(uint64(len(x)))
		for _, el := range x {
			if err := e.Value(el); err != nil {
				return err
			}
		}
	case eden.Nil:
		e.hdr(tagEdenNil)
		e.U64(0)
	case *graph.Thunk:
		// An evaluated thunk ships as its value node, exactly as
		// SizeOfChecked sizes it; unevaluated graph is the sender's
		// normal-form violation.
		if !x.IsEvaluated() {
			return &eden.UnevaluatedError{State: x.State()}
		}
		return e.Value(x.Value())
	default:
		c := byType[reflect.TypeOf(v)]
		if c == nil {
			return &EncodeError{Type: fmt.Sprintf("%T", v)}
		}
		e.hdr(c.tag)
		return c.enc(e, v)
	}
	return nil
}

// --- decoder ---

// maxDepth bounds value nesting so adversarial input cannot overflow
// the decoder's stack; real messages nest a handful of levels.
const maxDepth = 64

// Dec consumes one value's wire bytes. Every read checks bounds and
// returns a *DecodeError on truncation, so registered decoders can
// propagate errors without their own length bookkeeping.
type Dec struct {
	b     []byte
	off   int
	depth int
}

func (d *Dec) fail(reason string) error { return &DecodeError{Off: d.off, Reason: reason} }

func (d *Dec) need(n int) error {
	if len(d.b)-d.off < n {
		return d.fail(fmt.Sprintf("truncated: need %d bytes, have %d", n, len(d.b)-d.off))
	}
	return nil
}

// U64 reads one unsigned 8-byte word.
func (d *Dec) U64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	x := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return x, nil
}

// I64 reads one signed 8-byte word.
func (d *Dec) I64() (int64, error) {
	x, err := d.U64()
	return int64(x), err
}

// F64 reads one float64 word.
func (d *Dec) F64() (float64, error) {
	x, err := d.U64()
	return math.Float64frombits(x), err
}

// Str reads a length-prefixed string.
func (d *Dec) Str() (string, error) {
	n, err := d.U64()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)-d.off) {
		return "", d.fail(fmt.Sprintf("string length %d exceeds remaining %d bytes", n, len(d.b)-d.off))
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Skip consumes n reserved bytes.
func (d *Dec) Skip(n int) error {
	if err := d.need(n); err != nil {
		return err
	}
	d.off += n
	return nil
}

// count reads an element count and sanity-checks it against the
// remaining input, given a minimum encoded size per element — the
// guard that keeps a corrupt count from turning into a huge
// allocation.
func (d *Dec) count(minElem int) (int, error) {
	n, err := d.U64()
	if err != nil {
		return 0, err
	}
	if minElem > 0 && n > uint64(len(d.b)-d.off)/uint64(minElem) {
		return 0, d.fail(fmt.Sprintf("count %d exceeds remaining input", n))
	}
	return int(n), nil
}

// I32s reads a packed int32 array (count + 4 bytes per element).
func (d *Dec) I32s() ([]int32, error) {
	n, err := d.count(4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil // nil and empty slices both ship as count 0
	}
	out := make([]int32, n)
	for i := range out {
		x := binary.LittleEndian.Uint32(d.b[d.off:])
		d.off += 4
		out[i] = int32(x)
	}
	return out, nil
}

// F64s reads a packed float64 array.
func (d *Dec) F64s() ([]float64, error) {
	n, err := d.count(8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i], _ = d.F64()
	}
	return out, nil
}

// I64s reads a packed int64 array.
func (d *Dec) I64s() ([]int64, error) {
	n, err := d.count(8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i], _ = d.I64()
	}
	return out, nil
}

// Value reads one complete nested value (header + payload).
func (d *Dec) Value() (graph.Value, error) {
	if d.depth++; d.depth > maxDepth {
		return nil, d.fail("value nesting exceeds limit")
	}
	defer func() { d.depth-- }()
	if err := d.need(8); err != nil {
		return nil, err
	}
	tag := binary.LittleEndian.Uint32(d.b[d.off:])
	aux := binary.LittleEndian.Uint32(d.b[d.off+4:])
	d.off += 8
	if aux != 0 {
		return nil, d.fail(fmt.Sprintf("reserved header word is %#x, want 0", aux))
	}
	switch tag {
	case tagNilValue:
		_, err := d.U64()
		return nil, err
	case tagBool:
		x, err := d.U64()
		if err != nil {
			return nil, err
		}
		if x > 1 {
			return nil, d.fail(fmt.Sprintf("bool payload %d", x))
		}
		return x == 1, nil
	case tagInt:
		x, err := d.I64()
		return int(x), err
	case tagInt32:
		x, err := d.I64()
		if int64(int32(x)) != x {
			return nil, d.fail(fmt.Sprintf("int32 payload %d overflows", x))
		}
		return int32(x), err
	case tagInt64:
		return d.I64()
	case tagUint64:
		return d.U64()
	case tagFloat32:
		x, err := d.U64()
		if err != nil {
			return nil, err
		}
		if x > math.MaxUint32 {
			return nil, d.fail(fmt.Sprintf("float32 payload %#x overflows", x))
		}
		return math.Float32frombits(uint32(x)), nil
	case tagFloat64:
		return d.F64()
	case tagString:
		return d.Str()
	case tagIntSlice:
		n, err := d.count(8)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return []int(nil), nil
		}
		out := make([]int, n)
		for i := range out {
			x, _ := d.I64()
			out[i] = int(x)
		}
		return out, nil
	case tagInt64Slice:
		return d.I64s()
	case tagInt32Slice:
		return d.I32s()
	case tagFloat64Slice:
		return d.F64s()
	case tagFloat64Grid:
		n, err := d.count(16)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return [][]float64(nil), nil
		}
		out := make([][]float64, n)
		for i := range out {
			row, err := d.Value()
			if err != nil {
				return nil, err
			}
			r, ok := row.([]float64)
			if !ok {
				return nil, d.fail(fmt.Sprintf("grid row %d is %T, want []float64", i, row))
			}
			out[i] = r
		}
		return out, nil
	case tagIntGrid:
		n, err := d.count(16)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return [][]int(nil), nil
		}
		out := make([][]int, n)
		for i := range out {
			row, err := d.Value()
			if err != nil {
				return nil, err
			}
			r, ok := row.([]int)
			if !ok {
				return nil, d.fail(fmt.Sprintf("grid row %d is %T, want []int", i, row))
			}
			out[i] = r
		}
		return out, nil
	case tagInt32Grid:
		n, err := d.count(16)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return [][]int32(nil), nil
		}
		out := make([][]int32, n)
		for i := range out {
			row, err := d.Value()
			if err != nil {
				return nil, err
			}
			r, ok := row.([]int32)
			if !ok {
				return nil, d.fail(fmt.Sprintf("grid row %d is %T, want []int32", i, row))
			}
			out[i] = r
		}
		return out, nil
	case tagValueSlice:
		n, err := d.count(16)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return []graph.Value(nil), nil
		}
		out := make([]graph.Value, n)
		for i := range out {
			el, err := d.Value()
			if err != nil {
				return nil, err
			}
			out[i] = el
		}
		return out, nil
	case tagEdenNil:
		_, err := d.U64()
		return eden.Nil{}, err
	default:
		c := byTag[tag]
		if c == nil {
			return nil, d.fail(fmt.Sprintf("unknown type tag %d", tag))
		}
		return c.dec(d)
	}
}
