package eden_test

import (
	"errors"
	"reflect"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/eden/edentest"
	"parhask/internal/graph"
)

// CopyChecked's builtin cases: every shape SizeOfChecked sizes copies
// with no array shared with its source.
func TestCopyCheckedBuiltins(t *testing.T) {
	edentest.CheckCopies(t, []edentest.CopyCase{
		{Name: "nil", Make: func() graph.Value { return nil }},
		{Name: "int", Make: func() graph.Value { return 7 }},
		{Name: "string", Make: func() graph.Value { return "msg" }},
		{Name: "[]int", Make: func() graph.Value { return []int{1, 2} }},
		{Name: "[]int64", Make: func() graph.Value { return []int64{3} }},
		{Name: "[]float64", Make: func() graph.Value { return []float64{4.5, 5.5} }},
		{Name: "[][]float64", Make: func() graph.Value { return [][]float64{{1}, nil, {}, {2, 3}} }},
		{Name: "[][]int", Make: func() graph.Value { return [][]int{{1, 2}, {3}} }},
		{Name: "[][]int32", Make: func() graph.Value { return [][]int32{{4}, {5, 6}} }},
		{Name: "nil []graph.Value", Make: func() graph.Value { return []graph.Value(nil) }},
		{Name: "evaluated thunk", Make: func() graph.Value { return graph.NewValue([]int32{7, 8}) }},
		{Name: "Cons", Make: func() graph.Value {
			return eden.Cons{Head: []int{9}, Tail: graph.NewValue(eden.Nil{})}
		}},
		// A simulator port is shared, as every simulated message is.
		{Name: "simulator ports", Make: func() graph.Value {
			return []graph.Value{&eden.Inport{}, &eden.Outport{}, &eden.StreamIn{}, &eden.StreamOut{}}
		}},
	})
}

// A stream cell sent as a value carries its tail: SizeOfChecked charges
// and checks it as CopyChecked copies it, so the two refuse the same
// cells.
func TestConsTailSizedAndCopied(t *testing.T) {
	full := eden.Cons{Head: 1, Tail: graph.NewValue(eden.Nil{})}
	if got, want := eden.SizeOf(full), eden.SizeOf(1)+eden.SizeOf(eden.Nil{})+eden.ConsOverhead; got != want {
		t.Fatalf("SizeOf(%#v) = %d, want head + tail + overhead = %d", full, got, want)
	}
	open := eden.Cons{Head: 1, Tail: graph.NewPlaceholder()}
	var ue *eden.UnevaluatedError
	if _, err := eden.SizeOfChecked(open); !errors.As(err, &ue) {
		t.Fatalf("SizeOfChecked of a cell with an unevaluated tail: err = %v, want *eden.UnevaluatedError", err)
	}
	if _, err := eden.CopyChecked(open); !errors.As(err, &ue) {
		t.Fatalf("CopyChecked of a cell with an unevaluated tail: err = %v, want *eden.UnevaluatedError", err)
	}
}

// FuzzCloneRows: a row copy of any ragged shape equals its source, nil
// and empty rows included; every row's capacity is its length, so an
// append to one row cannot reach the next in the shared backing; and
// the copy shares nothing with its source. Each shape byte is one row:
// 0xFF a nil row, else a row of b%17 elements (0 an empty, non-nil one).
func FuzzCloneRows(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{}, true)
	f.Add([]byte{3, 0, 0xFF, 16, 1}, false)
	f.Add([]byte{0xFF, 0xFF}, false)
	f.Add([]byte{0, 0, 0}, false)
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8}, false)
	f.Fuzz(func(t *testing.T, shape []byte, nilOuter bool) {
		build := func() [][]int32 {
			if nilOuter && len(shape) == 0 {
				return nil
			}
			rows := make([][]int32, len(shape))
			for i, b := range shape {
				if b == 0xFF {
					continue
				}
				rows[i] = make([]int32, int(b)%17)
				for j := range rows[i] {
					rows[i][j] = int32(i<<8 | j)
				}
			}
			return rows
		}
		src := build()
		got := eden.CloneRows(src)
		if !reflect.DeepEqual(got, src) {
			t.Fatalf("copy differs from its source:\n got %#v\nwant %#v", got, src)
		}
		for i, r := range got {
			if cap(r) != len(r) {
				t.Fatalf("row %d: cap %d, len %d; an append would write into the next row", i, cap(r), len(r))
			}
			_ = append(r, -1)
		}
		edentest.Scramble(reflect.ValueOf(src))
		if want := build(); !reflect.DeepEqual(got, want) {
			t.Fatalf("copy changed when the source was mutated or a row appended to:\n got %#v\nwant %#v", got, want)
		}
	})
}
