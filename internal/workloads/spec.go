package workloads

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// A spec names a workload and some of its parameters as one string,
// "apsp?n=128&ring=32&seed=1": the form in which a cluster coordinator
// tells its worker processes which program to build, and in which a
// report names an instance. The grammar is strict, because a mistyped
// spec that silently ran the defaults would measure the wrong problem:
//
//	spec  = name [ "?" [ pair { "&" pair } ] ]
//	pair  = key "=" decimal
//
// with every key a parameter of the named entry, given at most once,
// and every value inside the parameter's range.

// ParseSpec parses a spec into its entry and the arguments the spec
// gives (defaults are not filled in: callers with defaults of their own
// add them before New). Unknown workloads, unknown or repeated keys,
// non-integers and out-of-range values are errors naming the key.
// Nothing is built.
func ParseSpec(spec string) (*Entry, Args, error) {
	name, query, _ := strings.Cut(spec, "?")
	e, err := Lookup(name)
	if err != nil {
		return nil, Args{}, err
	}
	var args Args
	if query == "" {
		return e, args, nil
	}
	for _, pair := range strings.Split(query, "&") {
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, Args{}, fmt.Errorf("workloads: spec %q: %q is not key=value", spec, pair)
		}
		if _, dup := args.Get(key); dup {
			return nil, Args{}, fmt.Errorf("workloads: spec %q: %s given twice", spec, key)
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, Args{}, fmt.Errorf("workloads: spec %q: %s=%q is not a non-negative integer", spec, key, val)
		}
		if err := e.checkArg(key, v); err != nil {
			return nil, Args{}, fmt.Errorf("workloads: spec %q: %w", spec, err)
		}
		args = args.With(key, v)
	}
	return e, args, nil
}

// FormatSpec renders an entry name and arguments as a spec, keys
// sorted, so equal arguments give equal strings.
func FormatSpec(name string, a Args) string {
	kvs := a.kv[:a.n] // a copy: a is a value
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].name < kvs[j].name })
	var sb strings.Builder
	sb.WriteString(name)
	sep := byte('?')
	for _, kv := range kvs {
		sb.WriteByte(sep)
		sep = '&'
		sb.WriteString(kv.name)
		sb.WriteByte('=')
		sb.WriteString(strconv.FormatUint(kv.v, 10))
	}
	return sb.String()
}

// Spec renders the instance with every parameter explicit: parsing it
// back and calling New gives the same instance whatever defaults the
// parsing side has.
func (i *Instance) Spec() string { return FormatSpec(i.Entry.Name, i.Args()) }
