// Package workloads is the one description of every workload in the
// repository: its name, its parameter schema, how its inputs are
// generated, the program it is on each runtime family, and its
// sequential oracle. The command-line driver (internal/driver), the
// resident service (internal/serve), the cluster's spec strings
// (internal/cluster), the timeline renderers and the chaos soak
// (internal/experiments) all build their programs here, so one set of
// arguments is one problem instance on every runtime.
//
// Adding a workload is one entry in table.go: a name, a parameter list,
// an input generator, the forms the workload has and its oracle, all as
// plain functions of the arguments. The driver's flags, the spec
// grammar and the parity tests pick it up from the table; serve and
// cluster each keep a short list of the names they admit, because what
// a service exposes is its own policy.
package workloads

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"parhask/internal/cost"
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
)

// Param is one non-negative integer parameter of a workload.
type Param struct {
	Name     string
	Default  uint64
	Min, Max uint64
	// Usage is the command-line help text. A parameter without one gets
	// no flag: generator constants and Eden shapes that the CLIs fix but
	// the service and the cluster set to their own values.
	Usage string
	// PerPE marks an Eden topology size whose value 0 means "one per
	// processing element". The entry cannot know the PE count, so a
	// caller that runs the Eden form replaces 0 with its own.
	PerPE bool
}

// MaxParams bounds the parameters of one workload.
const MaxParams = 8

// Args holds arguments by parameter name. It is a plain value: building
// one allocates nothing, which the service's per-request path needs.
type Args struct {
	n  int
	kv [MaxParams]struct {
		name string
		v    uint64
	}
}

// With returns a with the named argument set.
func (a Args) With(name string, v uint64) Args {
	i := 0
	for i < a.n && a.kv[i].name != name {
		i++
	}
	if i == a.n {
		a.n++ // past MaxParams this panics: no workload has that many
	}
	a.kv[i].name, a.kv[i].v = name, v
	return a
}

// Get returns the named argument and whether it is set.
func (a Args) Get(name string) (uint64, bool) {
	for _, kv := range a.kv[:a.n] {
		if kv.name == name {
			return kv.v, true
		}
	}
	return 0, false
}

// Val returns the named argument, 0 if it is not set.
func (a Args) Val(name string) uint64 { v, _ := a.Get(name); return v }

// WithDefaults returns a with every argument of def that a lacks added.
func (a Args) WithDefaults(def Args) Args {
	for _, kv := range def.kv[:def.n] {
		if _, ok := a.Get(kv.name); !ok {
			a = a.With(kv.name, kv.v)
		}
	}
	return a
}

// SimProgram is a program body for the simulated GpH runtimes.
type SimProgram = func(*rts.Ctx) graph.Value

// Entry is one workload of the table. Everything below the parameters
// is a function of the instance i, which it reads the arguments from
// (i.Int, i.Val), and — for the forms and the oracle — of in, whatever
// inputs generated for it. A nil form is one the workload does not have.
type Entry struct {
	Name string
	// DefaultRTS is the simulated runtime the CLI picks when -rts is not
	// given (the configuration the paper reports the program on).
	DefaultRTS string
	// Oracle names what the results are checked against, for reports.
	Oracle string
	Params []Param
	// title formats an instance's display name from n.
	title string

	// shape derives the instance's Shape (nil: the zero Shape).
	shape func(i *Instance) Shape
	// inputs generates the problem instance. It runs at most once per
	// Instance, on the first use of a form or of the oracle.
	inputs func(i *Instance) any
	// gph is the runtime-agnostic GpH program at the decomposition the
	// arguments fix; sim the cost-charged program for the simulated GpH
	// runtimes and variants its named alternatives; eden the Eden program.
	gph      func(i *Instance, in any) exec.Program
	sim      func(i *Instance, in any, c cost.Model) SimProgram
	variants map[string]func(i *Instance, in any, c cost.Model) SimProgram
	eden     func(i *Instance, in any, c cost.Model) pe.Program
	// reference runs the sequential oracle; verify compares a result
	// with a reference result and summarises it.
	reference func(i *Instance, in any) graph.Value
	verify    func(got, want graph.Value) (summary any, ok bool)
}

// Shape is what an instance's arguments imply besides its inputs.
type Shape struct {
	// ResidentBytes is the long-lived heap the simulated GpH collector
	// should assume (the inputs and the result).
	ResidentBytes int64
	// EdenProcs is the number of processes the Eden form's topology
	// spawns beside the root, 0 when it adapts to the PE count. The
	// simulator gives such a program one PE more than that.
	EdenProcs int
	// GpHFit and EdenFit say why the arguments do not fit the fixed GpH
	// decomposition or the Eden topology (nil when they do).
	GpHFit, EdenFit error
}

// Names lists the table's workloads.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// Lookup finds a workload by name.
func Lookup(name string) (*Entry, error) {
	for _, e := range table {
		if e.Name == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (have %s)", name, strings.Join(Names(), ", "))
}

// checkArg validates one given argument against the schema.
func (e *Entry) checkArg(name string, v uint64) error {
	for _, p := range e.Params {
		if p.Name != name {
			continue
		}
		if v < p.Min || v > p.Max {
			return fmt.Errorf("%s: %s=%d out of range [%d,%d]", e.Name, name, v, p.Min, p.Max)
		}
		return nil
	}
	return fmt.Errorf("%s: unknown parameter %q", e.Name, name)
}

// New validates the given arguments (unknown names and out-of-range
// values are errors naming the parameter), fills in the defaults of the
// rest and returns the instance. Nothing is generated yet: the inputs
// are built on the first use of a form or of the oracle, once, and
// shared by all of them.
func (e *Entry) New(given Args) (*Instance, error) {
	for _, kv := range given.kv[:given.n] {
		if err := e.checkArg(kv.name, kv.v); err != nil {
			return nil, err
		}
	}
	inst := &Instance{Entry: e}
	for i, p := range e.Params {
		v, ok := given.Get(p.Name)
		if !ok {
			v = p.Default
		}
		inst.vals[i] = v
	}
	if e.shape != nil {
		inst.Shape = e.shape(inst)
	}
	return inst, nil
}

// Instance is a workload at fixed arguments: one set of inputs, every
// program form the workload has over them, and the oracle.
type Instance struct {
	Entry *Entry
	Shape
	vals [MaxParams]uint64 // by position in Entry.Params

	inOnce, wantOnce sync.Once
	in               any
	want             graph.Value
}

// Val returns the named argument: the given value or the default. A
// name outside the schema is a bug in the caller and panics.
func (i *Instance) Val(name string) uint64 {
	for k, p := range i.Entry.Params {
		if p.Name == name {
			return i.vals[k]
		}
	}
	panic("workloads: " + i.Entry.Name + " has no parameter " + name)
}

// Int returns the named argument as an int (every Max fits one).
func (i *Instance) Int(name string) int { return int(i.Val(name)) }

// Args returns every parameter of the schema, in schema order, defaults
// filled in.
func (i *Instance) Args() Args {
	var a Args
	for k, p := range i.Entry.Params {
		a.kv[k].name, a.kv[k].v = p.Name, i.vals[k]
	}
	a.n = len(i.Entry.Params)
	return a
}

// Key identifies the instance among all instances: a small comparable
// value for callers that memoise per instance.
func (i *Instance) Key() Key { return Key{i.Entry, i.vals} }

// Key is the type of Instance.Key.
type Key struct {
	entry *Entry
	vals  [MaxParams]uint64
}

// inputs returns the generated inputs, generating them on the first call.
func (i *Instance) inputs() any {
	i.inOnce.Do(func() { i.in = i.Entry.inputs(i) })
	return i.in
}

// ErrNoForm is wrapped by the error of every form accessor: the
// workload has no such program, or the arguments do not fit its shape.
var ErrNoForm = errors.New("no such form")

// lacks says why the instance does not have a form: the workload has
// no such program (have is false), or the arguments do not fit it.
func (i *Instance) lacks(form string, have bool, fit error) error {
	switch {
	case !have:
		return fmt.Errorf("%s has no %s form (%w)", i.Entry.Name, form, ErrNoForm)
	case fit != nil:
		return fmt.Errorf("%s: %v, so there is no %s form (%w)", i.Entry.Name, fit, form, ErrNoForm)
	}
	return nil
}

// GpH is the runtime-agnostic GpH program with the decomposition the
// arguments fix — what the native work-stealing runtime runs.
func (i *Instance) GpH() (exec.Program, error) {
	if err := i.lacks("native GpH", i.Entry.gph != nil, i.GpHFit); err != nil {
		return nil, err
	}
	return i.Entry.gph(i, i.inputs()), nil
}

// Sim is the cost-charged GpH program for the simulated runtimes:
// variant "" is the decomposition the arguments fix, any other name one
// of the workload's alternatives (matmul: "rows").
func (i *Instance) Sim(variant string, c cost.Model) (SimProgram, error) {
	mk, fit := i.Entry.sim, i.GpHFit
	if variant != "" {
		mk, fit = i.Entry.variants[variant], nil
	}
	if err := i.lacks(strings.TrimSpace("simulated GpH "+variant), mk != nil, fit); err != nil {
		return nil, err
	}
	return mk(i, i.inputs(), c), nil
}

// CanEden reports whether the instance has an Eden form that its
// arguments fit, without building anything.
func (i *Instance) CanEden() error { return i.lacks("Eden", i.Entry.eden != nil, i.EdenFit) }

// Eden is the Eden program; c is the zero Model on the native backends,
// where Burn and Alloc are no-ops.
func (i *Instance) Eden(c cost.Model) (pe.Program, error) {
	if err := i.CanEden(); err != nil {
		return nil, err
	}
	return i.Entry.eden(i, i.inputs(), c), nil
}

// Title is the display name of the instance.
func (i *Instance) Title() string { return fmt.Sprintf(i.Entry.title, i.Val("n")) }

// InputHash is the FNV-1a hash of the generated inputs as fmt prints
// them: equal hashes mean the same problem instance, bit for bit.
func (i *Instance) InputHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", i.inputs())
	return h.Sum64()
}

// Reference computes the sequential oracle's result. It is the
// expensive half of a check, and depends only on Key(): callers that
// see the same instances repeatedly may memoise it and call Verify.
func (i *Instance) Reference() graph.Value { return i.Entry.reference(i, i.inputs()) }

// Verify compares a run's result with a reference result. It returns a
// small printable, JSON-able summary of the result (the value itself
// for scalars, a checksum for matrices and images), or an error if the
// result has the wrong type or differs.
func (i *Instance) Verify(got, want graph.Value) (any, error) {
	summary, ok := i.Entry.verify(got, want)
	if !ok {
		return nil, fmt.Errorf("%s: result differs from the %s", i.Spec(), i.Entry.Oracle)
	}
	return summary, nil
}

// Check is Verify against this instance's own Reference, which is
// computed on the first call and kept.
func (i *Instance) Check(got graph.Value) (any, error) {
	i.wantOnce.Do(func() { i.want = i.Reference() })
	return i.Verify(got, i.want)
}

// nopCtx is the cost-free mutator context the oracles compute under.
type nopCtx struct{}

func (nopCtx) Burn(int64)  {}
func (nopCtx) Alloc(int64) {}
