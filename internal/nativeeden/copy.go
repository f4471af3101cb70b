package nativeeden

import (
	"fmt"
	"reflect"

	"parhask/internal/eden"
	"parhask/internal/graph"
)

// copyForSend deep-copies a normal-form message value so the receiver
// gets a structure sharing no mutable heap with the sender — the
// in-process stand-in for Eden's pack/unpack across address spaces.
// Evaluated thunks become fresh evaluated thunks around a copy of their
// value; an unevaluated thunk is a normal-form violation and returns
// the same *eden.UnevaluatedError the packing layer raises. Pure value
// types (no pointers, slices or maps anywhere in the type) are shared
// as-is: a value boxed in an interface cannot be mutated, so sharing it
// is already a copy.
func copyForSend(v graph.Value) (graph.Value, error) {
	switch x := v.(type) {
	case nil, bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64, uintptr,
		float32, float64, complex64, complex128, string:
		return v, nil
	case *graph.Thunk:
		return copyThunk(x)
	case []graph.Value:
		// The one typed slice case BenchmarkCopyForSend justifies: boxed
		// elements cannot be moved in bulk, and walking them through
		// reflect costs about five times this loop (values128).
		out := make([]graph.Value, len(x))
		for i, e := range x {
			c, err := copyForSend(e)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	}
	src := reflect.ValueOf(v)
	t := src.Type()
	if t.Kind() == reflect.Slice && !src.IsNil() {
		// MakeSlice's result boxes without the second header copy an
		// addressable reflect.New slot costs.
		out := reflect.MakeSlice(t, src.Len(), src.Len())
		if err := copyElems(out, src); err != nil {
			return nil, err
		}
		return out.Interface(), nil
	}
	out, err := copyValue(src)
	if err != nil {
		return nil, err
	}
	return out.Interface(), nil
}

// copyValue returns a copy of src in a fresh slot — or src itself when
// its type holds no indirection and sharing is already a copy.
func copyValue(src reflect.Value) (reflect.Value, error) {
	t := src.Type()
	if pureValue(t) {
		return src, nil
	}
	out := reflect.New(t).Elem()
	return out, copyInto(out, src)
}

// copyThunk copies an evaluated thunk into a fresh node; unevaluated
// graph in a message is the normal-form violation SizeOfChecked also
// rejects.
func copyThunk(t *graph.Thunk) (graph.Value, error) {
	if !t.IsEvaluated() {
		return nil, &eden.UnevaluatedError{State: t.State()}
	}
	c, err := copyForSend(t.Value())
	if err != nil {
		return nil, err
	}
	return graph.NewValue(c), nil
}

var thunkType = reflect.TypeOf((*graph.Thunk)(nil))

// copyInto clones src into dst, a zero, settable slot of the same type,
// writing in place so no intermediate value is built per field or
// element. It handles arbitrary message types (workload structs like
// the master-worker result packet) and refuses — with a diagnosable
// error, not silent sharing — anything it cannot prove copied:
// unexported fields in indirect types, channels, funcs.
func copyInto(dst, src reflect.Value) error {
	t := src.Type()
	switch t.Kind() {
	case reflect.Slice:
		if src.IsNil() {
			return nil
		}
		n := src.Len()
		if n == 0 {
			dst.Set(reflect.MakeSlice(t, 0, 0)) // empty, not nil
			return nil
		}
		dst.Grow(n) // allocates straight into the slot: one allocation
		dst.SetLen(n)
		return copyElems(dst, src)
	case reflect.Array:
		return copyElems(dst, src)
	case reflect.Map:
		if src.IsNil() {
			return nil
		}
		dst.Set(reflect.MakeMapWithSize(t, src.Len()))
		iter := src.MapRange()
		for iter.Next() {
			k, err := copyValue(iter.Key())
			if err != nil {
				return err
			}
			v, err := copyValue(iter.Value())
			if err != nil {
				return err
			}
			dst.SetMapIndex(k, v)
		}
		return nil
	case reflect.Interface:
		if src.IsNil() {
			return nil
		}
		c, err := copyForSend(src.Interface())
		if err != nil {
			return err
		}
		if c != nil {
			dst.Set(reflect.ValueOf(c))
		}
		return nil
	case reflect.Pointer:
		if src.IsNil() {
			return nil
		}
		if t == thunkType {
			c, err := copyThunk(src.Interface().(*graph.Thunk))
			if err != nil {
				return err
			}
			dst.Set(reflect.ValueOf(c))
			return nil
		}
		dst.Set(reflect.New(t.Elem()))
		return copyInto(dst.Elem(), src.Elem())
	case reflect.Struct:
		for i, n := 0, src.NumField(); i < n; i++ {
			f := src.Field(i)
			if !f.CanInterface() { // unexported: cannot be set field by field
				if pureValue(t) {
					dst.Set(src)
					return nil
				}
				return fmt.Errorf("cannot copy %s across heaps: unexported field %s", t, t.Field(i).Name)
			}
			if err := copyInto(dst.Field(i), f); err != nil {
				return err
			}
		}
		return nil
	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return fmt.Errorf("cannot copy %s across heaps", t)
	default: // scalars and strings
		dst.Set(src)
		return nil
	}
}

// copyElems fills dst, a slice or array of src's type and length, with
// copies of src's elements: one bulk move when the element type holds
// no indirection, element by element otherwise.
func copyElems(dst, src reflect.Value) error {
	if pureValue(src.Type().Elem()) {
		reflect.Copy(dst, src)
		return nil
	}
	for i, n := 0, src.Len(); i < n; i++ {
		if err := copyInto(dst.Index(i), src.Index(i)); err != nil {
			return err
		}
	}
	return nil
}

// pureValue reports whether t contains no indirection at any depth —
// such a value, once boxed in an interface, is immutable, so it may be
// shared across PEs without breaking heap isolation. Notably this
// covers the port types (structs of ints) and strings.
func pureValue(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	case reflect.Array:
		return pureValue(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pureValue(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
