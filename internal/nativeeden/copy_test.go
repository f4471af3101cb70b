package nativeeden

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/graph"
)

// Local mirrors of the workloads' message shapes (matmul.Mat/blockMsg,
// apsp.pivotMsg): the workloads import this package, so the tests
// cannot import them back.
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
)

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

// scramble adds one to every numeric leaf reachable from v through
// slices, arrays, pointers, interfaces, maps and evaluated thunks —
// every element a shallow or partial copy would still share.
func scramble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scramble(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scramble(v.Field(i))
		}
	case reflect.Interface:
		if !v.IsNil() {
			scramble(v.Elem())
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if t, ok := v.Interface().(*graph.Thunk); ok {
			scramble(reflect.ValueOf(t.Value()))
			return
		}
		scramble(v.Elem())
	case reflect.Map:
		for iter := v.MapRange(); iter.Next(); {
			scramble(iter.Value())
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		if v.CanSet() {
			v.SetInt(v.Int() + 1)
		}
	case reflect.Float64:
		if v.CanSet() {
			v.SetFloat(v.Float() + 1)
		}
	}
}

func TestCopyForSendShapes(t *testing.T) {
	cases := []struct {
		name string
		mk   func() graph.Value // builds the same fresh value each call
	}{
		{"named [][]float64", func() graph.Value { return newTestMat(5, 7) }},
		{"struct holding []int32", func() graph.Value { return testPivot{K: 3, Row: newRow(128), Hops: 2} }},
		{"block in struct", func() graph.Value { return testBlock{M: newTestMat(4, 4)} }},
		{"[][]int32", func() graph.Value { return [][]int32{newRow(3), nil, {}, newRow(9)} }},
		{"[]int32", func() graph.Value { return newRow(128) }},
		{"array of slices", func() graph.Value { return [3][]int32{newRow(2), nil, newRow(5)} }},
		{"arrays, nil and empty in a struct", func() graph.Value {
			return testMixed{
				Fixed: [4]float64{1, 2, 3, 4},
				Rows:  [2][]int32{newRow(4), newRow(1)},
				Empty: []int32{},
				Tag:   "x",
			}
		}},
		{"pointer to struct", func() graph.Value { return &testPivot{K: 1, Row: newRow(6)} }},
		{"map of rows", func() graph.Value { return map[string][]int32{"a": newRow(3), "b": nil} }},
		// DeepEqual tells nil from empty, here and in the struct above.
		{"nil slice", func() graph.Value { return []int32(nil) }},
		{"empty slice", func() graph.Value { return []int32{} }},
		{"[]graph.Value of evaluated thunks", func() graph.Value {
			return []graph.Value{
				graph.NewValue(newRow(8)),
				graph.NewValue(testPivot{K: 9, Row: newRow(4)}),
				graph.NewValue(graph.NewValue([]float64{1.5, 2.5})),
				int64(7),
				nil,
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.mk()
			got, err := copyForSend(src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, src) {
				t.Fatalf("copy differs from its source:\n got %#v\nwant %#v", got, src)
			}
			// A settable root lets scramble reach array elements held by value.
			root := reflect.New(reflect.TypeOf(src)).Elem()
			if src != nil {
				root.Set(reflect.ValueOf(src))
			}
			scramble(root)
			if want := tc.mk(); !reflect.DeepEqual(got, want) {
				t.Fatalf("copy changed when the source was mutated (shared backing array):\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

func TestCopyForSendRefusals(t *testing.T) {
	type hidden struct{ xs []int }
	type withChan struct{ C chan int }
	type withFunc struct{ F func() }
	unevaluated := func(err error) bool {
		var ue *eden.UnevaluatedError
		return errors.As(err, &ue)
	}
	mentions := func(s string) func(error) bool {
		return func(err error) bool { return strings.Contains(err.Error(), s) }
	}
	cases := []struct {
		name string
		v    graph.Value
		ok   func(error) bool
	}{
		{"unexported field", &hidden{xs: []int{1}}, mentions("unexported field xs")},
		{"unexported field in a slice element", []hidden{{xs: []int{1}}}, mentions("unexported field xs")},
		{"chan", withChan{C: make(chan int)}, mentions("cannot copy chan int across heaps")},
		{"func", []withFunc{{F: func() {}}}, mentions("cannot copy func() across heaps")},
		{"unevaluated thunk", graph.NewThunk(func(graph.Context) graph.Value { return 1 }), unevaluated},
		{"unevaluated thunk in a list", []graph.Value{1, graph.NewPlaceholder()}, unevaluated},
		{"unevaluated thunk in a struct", struct{ T *graph.Thunk }{graph.NewPlaceholder()}, unevaluated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := copyForSend(tc.v)
			if err == nil {
				t.Fatalf("copied %T as %#v, want a refusal", tc.v, got)
			}
			if !tc.ok(err) {
				t.Fatalf("refusal %q (%T) is not the expected diagnosis", err, err)
			}
		})
	}
}

// The bulk path's allocation shape: one backing array per row plus a
// constant (outer slice, the struct slot, its boxed copy) — never one
// per element.
func TestCopyForSendBlockAllocs(t *testing.T) {
	const rows = 96
	var block graph.Value = testBlock{M: newTestMat(rows, rows)}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := copyForSend(block); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > rows+4 {
		t.Fatalf("copying a %dx%d block in a struct took %.0f allocations, want at most %d", rows, rows, allocs, rows+4)
	}
}

var copySink graph.Value

// BenchmarkCopyForSend prices the in-process send's deep copy on the
// benchmark's two payload shapes (a 128-element row, a 96x96 block), on
// the APSP ring's pivot packet, and on a list of boxed scalars. It is
// also the judge of typed fast paths in copyForSend: one may stay only
// if it clearly beats the reflect walk here. A typed []int32 case does
// not (both are two allocations and a memmove on row128); the
// []graph.Value case does (delete it and values128 slows fivefold).
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
				c, err := copyForSend(bc.v)
				if err != nil {
					b.Fatal(err)
				}
				copySink = c
			}
		})
	}
}
