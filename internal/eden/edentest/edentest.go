// Package edentest is test support for Eden message types: the
// no-sharing check that every package defining an eden.Sized type runs
// on its types.
package edentest

import (
	"reflect"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/graph"
)

// CopyCase is one message value to copy. Make must build the same
// fresh value on every call.
type CopyCase struct {
	Name string
	Make func() graph.Value
}

// CheckCopies runs each case as a subtest: eden.CopyChecked of a fresh
// value must succeed and equal it (reflect.DeepEqual, which tells nil
// from empty), and the copy must stay equal to a fresh value after
// every numeric leaf of the source has been scrambled.
func CheckCopies(t *testing.T, cases []CopyCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			src := tc.Make()
			got, err := eden.CopyChecked(src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, src) {
				t.Fatalf("copy differs from its source:\n got %#v\nwant %#v", got, src)
			}
			if src != nil {
				// A settable root lets Scramble reach array elements held by value.
				root := reflect.New(reflect.TypeOf(src)).Elem()
				root.Set(reflect.ValueOf(src))
				Scramble(root)
			}
			if want := tc.Make(); !reflect.DeepEqual(got, want) {
				t.Fatalf("copy changed when the source was mutated (shared backing array):\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

// Scramble adds one to every settable numeric leaf reachable from v
// through slices, arrays, structs, pointers, interfaces, maps and
// evaluated thunks: every element a shallow or partial copy would
// still share.
func Scramble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			Scramble(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			Scramble(v.Field(i))
		}
	case reflect.Interface:
		if !v.IsNil() {
			Scramble(v.Elem())
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if t, ok := v.Interface().(*graph.Thunk); ok {
			Scramble(reflect.ValueOf(t.Value()))
			return
		}
		Scramble(v.Elem())
	case reflect.Map:
		for iter := v.MapRange(); iter.Next(); {
			Scramble(iter.Value())
		}
	default:
		switch {
		case !v.CanSet():
		case v.CanInt():
			v.SetInt(v.Int() + 1)
		case v.CanUint():
			v.SetUint(v.Uint() + 1)
		case v.CanFloat():
			v.SetFloat(v.Float() + 1)
		}
	}
}
