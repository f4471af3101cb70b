package nativeeden

import (
	"errors"
	"strings"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/eden/edentest"
	"parhask/internal/graph"
)

// Local mirrors of the workloads' message shapes (matmul.Mat/blockMsg,
// apsp.pivotMsg) plus the other shapes a message type may have. The
// workloads import this package, so the tests cannot import them back.
// Each implements eden.Sized the way a workload type does; the sizes
// are not under test here.
type (
	testMat   [][]float64
	testBlock struct{ M testMat }
	testPivot struct {
		K    int
		Row  []int32
		Hops int
	}
	testMixed struct {
		Fixed [4]float64
		Rows  [2][]int32
		Nil   []int32
		Empty []int32
		Tag   string
	}
	testRows3 [3][]int32
	testBox   struct{ Row []int32 }
	testMap   map[string][]int32
	testThunk struct{ T *graph.Thunk }
)

func (m testMat) PackedSize() int64 { return eden.SizeOf([][]float64(m)) }
func (m testMat) DeepCopy() (graph.Value, error) {
	return eden.CloneRows(m), nil
}

func (b testBlock) PackedSize() int64 { return eden.SizeOf([][]float64(b.M)) }
func (b testBlock) DeepCopy() (graph.Value, error) {
	return testBlock{M: eden.CloneRows(b.M)}, nil
}

func (p testPivot) PackedSize() int64 { return int64(4*len(p.Row)) + 32 }
func (p testPivot) DeepCopy() (graph.Value, error) {
	p.Row = eden.CloneSlice(p.Row)
	return p, nil
}

func (m testMixed) PackedSize() int64 { return 0 }
func (m testMixed) DeepCopy() (graph.Value, error) {
	for i, r := range m.Rows {
		m.Rows[i] = eden.CloneSlice(r)
	}
	m.Nil, m.Empty = eden.CloneSlice(m.Nil), eden.CloneSlice(m.Empty)
	return m, nil
}

func (a testRows3) PackedSize() int64 { return 0 }
func (a testRows3) DeepCopy() (graph.Value, error) {
	for i, r := range a {
		a[i] = eden.CloneSlice(r)
	}
	return a, nil
}

// A pointer type copies into a fresh pointee.
func (b *testBox) PackedSize() int64 { return 0 }
func (b *testBox) DeepCopy() (graph.Value, error) {
	return &testBox{Row: eden.CloneSlice(b.Row)}, nil
}

func (m testMap) PackedSize() int64 { return 0 }
func (m testMap) DeepCopy() (graph.Value, error) {
	out := make(testMap, len(m))
	for k, r := range m {
		out[k] = eden.CloneSlice(r)
	}
	return out, nil
}

func (s testThunk) PackedSize() int64 { return 0 }
func (s testThunk) DeepCopy() (graph.Value, error) {
	c, err := eden.CopyChecked(s.T)
	if err != nil {
		return nil, err
	}
	return testThunk{T: c.(*graph.Thunk)}, nil
}

func newTestMat(rows, cols int) testMat {
	m := make(testMat, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = float64(i*cols + j)
		}
	}
	return m
}

func newRow(n int) []int32 {
	row := make([]int32, n)
	for i := range row {
		row[i] = int32(i)
	}
	return row
}

func TestCopyForSendShapes(t *testing.T) {
	edentest.CheckCopies(t, []edentest.CopyCase{
		{Name: "named [][]float64", Make: func() graph.Value { return newTestMat(5, 7) }},
		{Name: "struct holding []int32", Make: func() graph.Value { return testPivot{K: 3, Row: newRow(128), Hops: 2} }},
		{Name: "block in struct", Make: func() graph.Value { return testBlock{M: newTestMat(4, 4)} }},
		{Name: "[][]int32", Make: func() graph.Value { return [][]int32{newRow(3), nil, {}, newRow(9)} }},
		{Name: "[]int32", Make: func() graph.Value { return newRow(128) }},
		{Name: "array of slices", Make: func() graph.Value { return testRows3{newRow(2), nil, newRow(5)} }},
		{Name: "arrays, nil and empty in a struct", Make: func() graph.Value {
			return testMixed{
				Fixed: [4]float64{1, 2, 3, 4},
				Rows:  [2][]int32{newRow(4), newRow(1)},
				Empty: []int32{},
				Tag:   "x",
			}
		}},
		{Name: "pointer type with its own copy", Make: func() graph.Value { return &testBox{Row: newRow(6)} }},
		{Name: "map of rows", Make: func() graph.Value { return testMap{"a": newRow(3), "b": nil} }},
		// DeepEqual tells nil from empty, here and in the struct above.
		{Name: "nil slice", Make: func() graph.Value { return []int32(nil) }},
		{Name: "empty slice", Make: func() graph.Value { return []int32{} }},
		{Name: "[]graph.Value of evaluated thunks", Make: func() graph.Value {
			return []graph.Value{
				graph.NewValue(newRow(8)),
				graph.NewValue(testPivot{K: 9, Row: newRow(4)}),
				graph.NewValue(graph.NewValue([]float64{1.5, 2.5})),
				int64(7),
				nil,
			}
		}},
		{Name: "ports", Make: func() graph.Value {
			return []graph.Value{Inport{id: 1, pe: 2}, Outport{id: 3, dest: 4}, StreamIn{id: 5, pe: 6}, StreamOut{id: 7, dest: 8}}
		}},
	})
	// A pointer to a type with value methods is Sized through its method
	// set, but its copy would be the value: the receiver would see
	// another type, so the copy is refused, as the cluster codec refuses
	// to encode it.
	t.Run("pointer to struct", func(t *testing.T) {
		src := &testPivot{K: 1, Row: newRow(6)}
		got, err := eden.CopyChecked(src)
		var ue *eden.UnsizedTypeError
		if !errors.As(err, &ue) || ue.Type != "*nativeeden.testPivot" || ue.CopyType != "nativeeden.testPivot" {
			t.Fatalf("CopyChecked(%T) = %#v, %v; want an *eden.UnsizedTypeError naming both types", src, got, err)
		}
	})
}

// A value the message rules cannot copy is refused with a structured
// error, never shared: unevaluated graph anywhere in it, or a type that
// is not a message type (no eden.Sized), whatever it holds.
func TestCopyForSendRefusals(t *testing.T) {
	type hidden struct{ xs []int }
	type withChan struct{ C chan int }
	type withFunc struct{ F func() }
	unevaluated := func(err error) bool {
		var ue *eden.UnevaluatedError
		return errors.As(err, &ue)
	}
	noCopy := func(typ string) func(error) bool {
		return func(err error) bool {
			var ue *eden.UnsizedTypeError
			return errors.As(err, &ue) && ue.Type == typ && strings.Contains(err.Error(), typ)
		}
	}
	cases := []struct {
		name string
		v    graph.Value
		ok   func(error) bool
	}{
		{"unexported field", &hidden{xs: []int{1}}, noCopy("*nativeeden.hidden")},
		{"unexported field in a slice element", []hidden{{xs: []int{1}}}, noCopy("[]nativeeden.hidden")},
		{"chan", withChan{C: make(chan int)}, noCopy("nativeeden.withChan")},
		{"func", []withFunc{{F: func() {}}}, noCopy("[]nativeeden.withFunc")},
		{"no copy inside a list", []graph.Value{1, map[string]int{"a": 1}}, noCopy("map[string]int")},
		{"unevaluated thunk", graph.NewThunk(func(graph.Context) graph.Value { return 1 }), unevaluated},
		{"unevaluated thunk in a list", []graph.Value{1, graph.NewPlaceholder()}, unevaluated},
		{"unevaluated thunk in a struct", testThunk{T: graph.NewPlaceholder()}, unevaluated},
		{"unevaluated thunk in a stream cell", eden.Cons{Head: graph.NewPlaceholder()}, unevaluated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := eden.CopyChecked(tc.v)
			if err == nil {
				t.Fatalf("copied %T as %#v, want a refusal", tc.v, got)
			}
			if !tc.ok(err) {
				t.Fatalf("refusal %q (%T) is not the expected diagnosis", err, err)
			}
		})
	}
}

// The copy's allocation shape: a constant (the row headers, the one
// backing array, the boxed struct), never one per row or per element.
// The tall, narrow block fails a copy that allocates per row.
func TestCopyForSendBlockAllocs(t *testing.T) {
	const maxAllocs = 4
	for _, shape := range []struct{ rows, cols int }{{96, 96}, {384, 8}} {
		var block graph.Value = testBlock{M: newTestMat(shape.rows, shape.cols)}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := eden.CopyChecked(block); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxAllocs {
			t.Fatalf("copying a %dx%d block in a struct took %.0f allocations, want at most %d",
				shape.rows, shape.cols, allocs, maxAllocs)
		}
	}
}

var copySink graph.Value

// BenchmarkCopyForSend prices the in-process send's deep copy on the
// benchmark's two payload shapes (a 128-element row, a 96x96 block), on
// the APSP ring's pivot packet, and on a list of boxed scalars. Each
// message type copies itself, so what is priced is the allocations and
// the moves: a flat row is one allocation, and a block of rows is two
// (the row headers and one backing array for every element, which
// eden.CloneRows zeroes before it copies the rows in) plus the boxed
// struct, however many rows it has.
func BenchmarkCopyForSend(b *testing.B) {
	boxed := make([]graph.Value, 128)
	for i := range boxed {
		boxed[i] = int64(i)
	}
	for _, bc := range []struct {
		name  string
		v     graph.Value
		bytes int64
	}{
		{"row128_int32", newRow(128), 128 * 4},
		{"pivot_struct", testPivot{K: 5, Row: newRow(128), Hops: 1}, 128*4 + 16},
		{"block96_struct", testBlock{M: newTestMat(96, 96)}, 96 * 96 * 8},
		{"values128", boxed, 128 * 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(bc.bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := eden.CopyChecked(bc.v)
				if err != nil {
					b.Fatal(err)
				}
				copySink = c
			}
		})
	}
}
