package wire_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/eden/wire"
	"parhask/internal/graph"
	_ "parhask/internal/nativeeden"       // port codecs
	_ "parhask/internal/skel"             // KV, mwResult codecs
	_ "parhask/internal/workloads/apsp"   // Graph, ringInput, pivotMsg codecs
	_ "parhask/internal/workloads/euler"  // Range codec
	_ "parhask/internal/workloads/matmul" // Mat, cannonInput, blockMsg codecs
)

// corpus returns representative values of every encodable shape: the
// builtin types plus non-trivial instances reachable through the
// registered named types' public construction paths (the unexported
// packets travel nested inside skeleton traffic and are exercised by
// the cluster integration tests; here the registry's protos stand in
// for them).
func corpus() []graph.Value {
	vals := []graph.Value{
		nil,
		true, false,
		int(-7), int32(123), int64(1 << 40), uint64(math.MaxUint64),
		float32(1.5), float64(-2.25), math.Inf(1), math.NaN(),
		"", "hello wire",
		[]int{1, -2, 3},
		[]int64{1 << 50},
		[]int32{4, 5, 6, 7},
		[]float64{0.5, -0.25},
		[][]float64{{1, 2}, {3}},
		// Nil and empty slices both ship as count 0 and decode to nil,
		// so the corpus uses non-empty rows for exact deep equality.
		[][]int{{9}, {10, 11}},
		[][]int32{{1, 2, 3}},
		[]graph.Value{int(1), "two", []float64{3}},
		eden.Nil{},
	}
	// Every registered named type, at least as its zero prototype, so a
	// newly registered codec joins the property suite automatically.
	vals = append(vals, wire.RegisteredProtos()...)
	return vals
}

// TestAppendEncodeBehindPrefix: AppendEncode keeps dst's bytes, in
// place and in its result, and appends exactly Encode's bytes, whether
// dst has room or must move — the contract that lets the cluster
// transport encode a payload behind its frame header.
func TestAppendEncodeBehindPrefix(t *testing.T) {
	prefix := []byte("frame header room")
	for _, v := range corpus() {
		want, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("Encode(%T): %v", v, err)
		}
		for _, dst := range [][]byte{
			bytes.Clone(prefix)[:len(prefix):len(prefix)], // full: must move
			append(make([]byte, 0, len(prefix)+len(want)), prefix...),
		} {
			got, err := wire.AppendEncode(dst, v)
			if err != nil {
				t.Fatalf("AppendEncode(%T): %v", v, err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("AppendEncode(%T) = %x, want %x behind the prefix", v, got, want)
			}
			if !bytes.Equal(dst, prefix) {
				t.Fatalf("AppendEncode(%T) rewrote its destination's prefix", v)
			}
		}
	}
}

// TestRoundTripProperty: decode(encode(v)) deep-equals v with the same
// dynamic type, and the encoded length equals the packing model's
// charge — the assertion that makes eden.SizeOfChecked the actual
// bytes on the wire.
func TestRoundTripProperty(t *testing.T) {
	for _, v := range corpus() {
		b, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", v, err)
		}
		want, err := eden.SizeOfChecked(v)
		if err != nil {
			t.Fatalf("SizeOfChecked(%#v): %v", v, err)
		}
		if int64(len(b)) != want {
			t.Fatalf("len(Encode(%#v)) = %d, SizeOfChecked = %d", v, len(b), want)
		}
		got, err := wire.Decode(b)
		if err != nil {
			t.Fatalf("Decode(Encode(%#v)): %v", v, err)
		}
		if !deepEqualNaN(got, v) {
			t.Fatalf("round trip of %#v (%T) gave %#v (%T)", v, v, got, got)
		}
	}
}

// deepEqualNaN is reflect.DeepEqual except NaN == NaN (bit-exact float
// round-tripping is part of the property).
func deepEqualNaN(a, b graph.Value) bool {
	if af, ok := a.(float64); ok {
		if bf, ok := b.(float64); ok {
			return math.Float64bits(af) == math.Float64bits(bf)
		}
	}
	return reflect.DeepEqual(a, b)
}

// TestRoundTripSharesNoHeap is the mutation probe: decoding must build
// a fresh heap, so mutating the decoded value cannot be visible
// through the original (and vice versa) — the property that lets the
// cluster runtime resolve decoded values straight into a PE's private
// heap.
func TestRoundTripSharesNoHeap(t *testing.T) {
	orig := [][]float64{{1, 2}, {3, 4}}
	b, err := wire.Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	m := got.([][]float64)
	m[0][0] = 99
	m[1] = append(m[1], 5)
	if orig[0][0] != 1 || len(orig[1]) != 2 {
		t.Fatalf("decoded value shares heap with the original: %v", orig)
	}

	nested := []graph.Value{[]int32{7, 8}, "s"}
	b, err = wire.Encode(nested)
	if err != nil {
		t.Fatal(err)
	}
	got, err = wire.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got.([]graph.Value)[0].([]int32)[0] = -1
	if nested[0].([]int32)[0] != 7 {
		t.Fatal("nested decoded slice shares heap with the original")
	}
}

// TestEvaluatedThunkEncodesAsValue: normal-form graph ships as its
// value node; unevaluated graph is the sender's error.
func TestEvaluatedThunkEncodesAsValue(t *testing.T) {
	th := graph.NewValue([]int{1, 2})
	b, err := wire.Encode(th)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("thunk round trip gave %#v", got)
	}

	if _, err := wire.Encode(graph.NewPlaceholder()); err == nil {
		t.Fatal("encoding an unevaluated thunk must fail")
	} else {
		var ue *eden.UnevaluatedError
		if !errors.As(err, &ue) {
			t.Fatalf("error = %v, want *eden.UnevaluatedError", err)
		}
	}
}

// TestEncodeUnknownType: a type with no codec is a structured error.
func TestEncodeUnknownType(t *testing.T) {
	type mystery struct{ X int }
	_, err := wire.Encode(mystery{1})
	var se *eden.UnsizedTypeError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *eden.UnsizedTypeError (unsized before unknown)", err)
	}
}

// TestDecodeTruncated: every strict prefix of a valid encoding decodes
// to a structured error — never a panic, never a value.
func TestDecodeTruncated(t *testing.T) {
	for _, v := range corpus() {
		b, err := wire.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := wire.Decode(b[:cut]); err == nil {
				t.Fatalf("Decode of %d/%d-byte prefix of %#v succeeded", cut, len(b), v)
			}
		}
	}
}

// TestDecodeCorrupted: random single-byte flips either decode to some
// valid value or return a structured error; the decoder must never
// panic. Seeded, so a failure replays.
func TestDecodeCorrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, v := range corpus() {
		b, err := wire.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), b...)
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Decode panicked on corrupted input of %#v: %v", v, p)
					}
				}()
				if _, err := wire.Decode(mut); err != nil {
					var de *wire.DecodeError
					if !errors.As(err, &de) {
						t.Fatalf("corruption error is %T (%v), want *wire.DecodeError", err, err)
					}
				}
			}()
		}
	}
}

// TestDecodeGarbage: arbitrary random bytes never panic the decoder.
func TestDecodeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Decode panicked on %x: %v", b, p)
				}
			}()
			_, _ = wire.Decode(b)
		}()
	}
}

// TestDecodeHugeCountRejected: a corrupt length prefix claiming more
// elements than the input could hold must fail fast instead of
// attempting the allocation.
func TestDecodeHugeCountRejected(t *testing.T) {
	b, err := wire.Encode([]int64{1})
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the count word (bytes 8..15) with a huge value.
	for i := 8; i < 16; i++ {
		b[i] = 0xff
	}
	if _, err := wire.Decode(b); err == nil {
		t.Fatal("huge count must be rejected")
	}
}

// FuzzWireDecode: arbitrary bytes never panic the decoder and fail only
// with a *wire.DecodeError; whatever does decode re-encodes to exactly
// the packing model's byte count and round-trips to itself. Seeded
// from the fixed corpus, whole and truncated.
func FuzzWireDecode(f *testing.F) {
	for _, v := range corpus() {
		b, err := wire.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wire.Decode(data)
		if err != nil {
			var de *wire.DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("decode error is %T (%v), want *wire.DecodeError", err, err)
			}
			return
		}
		enc, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", v, err)
		}
		size, err := eden.SizeOfChecked(v)
		if err != nil || int64(len(enc)) != size {
			t.Fatalf("len(Encode(%#v)) = %d, SizeOfChecked = %d, %v", v, len(enc), size, err)
		}
		back, err := wire.Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%#v)): %v", v, err)
		}
		if reflect.DeepEqual(back, v) {
			return
		}
		// A NaN anywhere defeats DeepEqual; bit-exact bytes still decide.
		if again, err := wire.Encode(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip of %#v (%T) gave %#v (%T)", v, v, back, back)
		}
	})
}
