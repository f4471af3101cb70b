package workloads_test

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"parhask/internal/cluster"
	"parhask/internal/cost"
	"parhask/internal/eden"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/workloads"
)

// TestMain lets the single-process cluster runs of the parity matrix
// re-execute this binary as their worker.
func TestMain(m *testing.M) {
	cluster.MaybeWorker()
	os.Exit(m.Run())
}

// toy sizes every entry small enough to run on every runtime in
// milliseconds. A new table entry must be added here too: the matrix
// fails on an entry it has no size for.
var toy = map[string]workloads.Args{
	"sumeuler": args("n", 300, "chunks", 6, "pechunks", 2),
	"matmul":   args("n", 12, "block", 4, "q", 2, "seed", 5),
	"apsp":     args("n", 10, "ring", 2, "seed", 3),
	"fuzz":     args("n", 40, "seed", 2),
	"mandel":   args("n", 16),
	"parfib":   args("n", 14, "cutoff", 8),
	"queens":   args("n", 6),
}

// args builds Args from name, value pairs.
func args(kv ...any) workloads.Args {
	var a workloads.Args
	for i := 0; i < len(kv); i += 2 {
		a = a.With(kv[i].(string), uint64(kv[i+1].(int)))
	}
	return a
}

// variants lists the simulated GpH decompositions of each entry ("" is
// the one the arguments fix).
var variants = map[string][]string{
	"sumeuler": {""}, "matmul": {"", "rows"}, "apsp": {""}, "fuzz": {""}, "mandel": {""}, "parfib": {""}, "queens": {""},
}

var clusterBuilt = map[string]bool{"sumeuler": true, "apsp": true, "matmul": true}

func instance(t *testing.T, name string, a workloads.Args) *workloads.Instance {
	t.Helper()
	e, err := workloads.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.New(a)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestParityMatrix runs every form of every entry on the runtimes that
// take it — simulated and native GpH,
// simulated and native Eden, and a one-process cluster for the entries
// the cluster builds — and checks each result with the entry's own
// oracle. A form an entry lacks must be a *FormError, not a nil
// program.
func TestParityMatrix(t *testing.T) {
	for _, name := range workloads.Names() {
		size, ok := toy[name]
		if !ok {
			t.Errorf("%s: the table has an entry the parity matrix has no toy size for", name)
			continue
		}
		inst := instance(t, name, size)
		var ran []string
		// check takes a *Result of any runtime (they all have a Value).
		check := func(form string, res any, err error) {
			t.Helper()
			if err != nil {
				t.Errorf("%s on %s: %v", name, form, err)
				return
			}
			v := reflect.ValueOf(res).Elem().FieldByName("Value").Interface()
			if _, err := inst.Check(v); err != nil {
				t.Errorf("%s on %s: %v", name, form, err)
			}
			ran = append(ran, form)
		}
		// missing asserts the structured error of an absent form.
		missing := func(form string, err error) {
			t.Helper()
			if !errors.Is(err, workloads.ErrNoForm) || !strings.Contains(err.Error(), name+" has no") {
				t.Errorf("%s: missing %s form reported as %v, want an ErrNoForm naming it", name, form, err)
			}
		}

		scfg := gph.WorkStealingConfig(4)
		for _, variant := range variants[name] {
			sim, err := inst.Sim(variant, scfg.Costs)
			if err != nil {
				t.Errorf("%s: every entry has a simulated GpH form: %v", name, err)
				continue
			}
			res, err := gph.Run(scfg, sim)
			check("gph.Run "+variant, res, err)
		}
		if _, err := inst.Sim("columns", scfg.Costs); err == nil {
			t.Errorf("%s: built an unknown variant", name)
		} else {
			missing("variant", err)
		}

		if prog, err := inst.GpH(); err != nil {
			missing("native GpH", err)
		} else {
			res, err := native.Run(native.NewConfig(3), prog)
			check("native.Run", res, err)
		}

		if err := inst.CanEden(); err != nil {
			missing("Eden", err)
			if _, err := inst.Eden(cost.Model{}); err == nil {
				t.Errorf("%s: CanEden failed but Eden built a program", name)
			}
		} else {
			ecfg := eden.NewConfig(4, 4)
			sprog, _ := inst.Eden(ecfg.Costs)
			sres, err := eden.Run(ecfg, sprog)
			check("eden.Run", sres, err)

			prog, _ := inst.Eden(cost.Model{})
			res, err := nativeeden.Run(nativeeden.NewConfig(3), prog)
			check("nativeeden.Run", res, err)

			ccfg := cluster.Config{Procs: 1, PerProc: 3, Transport: "unix", Spec: inst.Spec()}
			if ccfg.Validate() == nil {
				cres, err := cluster.Run(ccfg)
				check("cluster.Run "+ccfg.Spec, cres, err)
			}
		}
		t.Logf("%s verified on: %s", name, strings.Join(ran, ", "))
	}
}

func TestCheckRejectsWrongResults(t *testing.T) {
	for _, name := range workloads.Names() {
		inst := instance(t, name, toy[name])
		want := inst.Reference()
		if _, err := inst.Check(want); err != nil {
			t.Errorf("%s: the reference fails its own check: %v", name, err)
		}
		for _, wrong := range []graph.Value{nil, int64(-7), "text", [][]int32{{1}}} {
			if _, err := inst.Check(wrong); err == nil {
				t.Errorf("%s: Check accepted %#v", name, wrong)
			}
		}
	}
}

func TestNewValidates(t *testing.T) {
	e, _ := workloads.Lookup("matmul")
	for _, c := range []struct {
		args  workloads.Args
		names string
	}{
		{args("size", 8), `"size"`},
		{args("n", 0), "n=0"},
		{args("n", 1<<20), "n="},
		{args("q", 65), "q=65"},
	} {
		if _, err := e.New(c.args); err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("New(%v) = %v, want an error naming %s", c.args, err, c.names)
		}
	}
	if _, err := workloads.Lookup("quicksort"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("Lookup(quicksort) = %v", err)
	}
}

// TestShapesThatDoNotFit: a shape the arguments do not fit takes away
// only the forms that need it, with an error naming the parameter.
func TestShapesThatDoNotFit(t *testing.T) {
	m := instance(t, "matmul", args("n", 16, "block", 5, "q", 3))
	noForm := func(err error, names string) bool {
		return errors.Is(err, workloads.ErrNoForm) && strings.Contains(err.Error(), names)
	}
	if _, err := m.GpH(); !noForm(err, "block=5") {
		t.Errorf("GpH with block∤n: %v", err)
	}
	if _, err := m.Sim("", cost.Default()); !noForm(err, "block=5") {
		t.Errorf("Sim with block∤n: %v", err)
	}
	if _, err := m.Eden(cost.Model{}); !noForm(err, "q=3") {
		t.Errorf("Eden with q∤n: %v", err)
	}
	if _, err := m.Sim("rows", cost.Default()); err != nil {
		t.Errorf("the row variant needs no block: %v", err)
	}

	a := instance(t, "apsp", args("n", 8))
	if err := a.CanEden(); !noForm(err, "ring=0") {
		t.Errorf("apsp with ring=0: CanEden = %v", err)
	}
	if _, err := a.GpH(); err != nil {
		t.Errorf("apsp's GpH form needs no ring: %v", err)
	}
}

// TestOneInstancePerArgs: equal arguments are one problem instance
// whatever else differs, and every generator argument matters.
func TestOneInstancePerArgs(t *testing.T) {
	base := args("n", 12, "seed", 3)
	h := instance(t, "apsp", base).InputHash()
	if h2 := instance(t, "apsp", base.With("ring", 4)).InputHash(); h2 != h {
		t.Errorf("the ring size changed the graph: %#x vs %#x", h2, h)
	}
	for _, other := range []workloads.Args{args("n", 13), args("seed", 4), args("maxw", 40), args("density", 4)} {
		if h2 := instance(t, "apsp", other.WithDefaults(base)).InputHash(); h2 == h {
			t.Errorf("apsp with %v has the inputs of the base instance", other)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, name := range workloads.Names() {
		inst := instance(t, name, toy[name])
		e, parsed, err := workloads.ParseSpec(inst.Spec())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", inst.Spec(), err)
		}
		if e != inst.Entry || workloads.FormatSpec(e.Name, parsed) != inst.Spec() {
			t.Errorf("%q parsed to %s %v, want %v", inst.Spec(), e.Name, parsed, inst.Args())
		}
		for _, p := range e.Params {
			if _, ok := parsed.Get(p.Name); !ok {
				t.Errorf("%q leaves %s to the parsing side's defaults", inst.Spec(), p.Name)
			}
		}
	}
}

func TestParseSpecStrict(t *testing.T) {
	for _, c := range []struct{ spec, names string }{
		{"quicksort", "unknown workload"},
		{"apsp?n=abc", "n="},
		{"apsp?nodes=64", `"nodes"`},
		{"apsp?n=-1", "n="},
		{"apsp?n=1.5", "n="},
		{"apsp?n=0x10", "n="},
		{"apsp?n", `"n"`},
		{"apsp?n=8&", `""`},
		{"apsp?n=8&n=8", "n given twice"},
		{"apsp?n=8;ring=2", "n="},
		{"apsp?n=99999", "n=99999"},
		{"apsp?density=101", "density=101"},
		{"apsp?n=18446744073709551616", "n="},
		{"apsp?N=8", `"N"`},
		{"apsp ?n=8", "unknown workload"},
	} {
		if _, _, err := workloads.ParseSpec(c.spec); err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("ParseSpec(%q) = %v, want an error naming %s", c.spec, err, c.names)
		}
	}
	for spec, want := range map[string]workloads.Args{
		"sumeuler":                       {},
		"sumeuler?":                      {},
		"sumeuler?n=500&chunks=3":        args("n", 500, "chunks", 3),
		"apsp?n=12&ring=2&seed=3":        args("n", 12, "ring", 2, "seed", 3),
		"matmul?n=8&q=2":                 args("n", 8, "q", 2),
		"apsp?n=128&ring=32&seed=1":      args("n", 128, "ring", 32, "seed", 1),
		"fuzz?seed=18446744073709551615": workloads.Args{}.With("seed", 1<<64-1),
	} {
		_, got, err := workloads.ParseSpec(spec)
		if err != nil || got != want {
			t.Errorf("ParseSpec(%q) = %v, %v, want %v", spec, got, err, want)
		}
	}
}

// FuzzParseSpec: no input panics the parser; an accepted spec renders
// back to a spec that parses to the same arguments, and is a valid
// instance (built without generating any input: New is lazy).
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"sumeuler", "sumeuler?n=500&chunks=3", "apsp?n=12&ring=2&seed=3", "matmul?n=8&q=2",
		"apsp?n=128&ring=32&seed=1", "unknown?x=1", "sumeuler?n=2000;chunks=2",
		"apsp?n=abc", "apsp?nodes=64", "apsp?n=-1", "sumeuler?n=-5", "matmul?n=0&q=2", "sumeuler?chunks=0",
		"matmul?n=16&q=3", "apsp?n=16&ring=0", "apsp?n=8&n=9", "mandel?height=3&n=4", "?", "a?b=c&d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		e, given, err := workloads.ParseSpec(spec)
		if err != nil {
			return
		}
		again := workloads.FormatSpec(e.Name, given)
		e2, given2, err := workloads.ParseSpec(again)
		if err != nil || e2 != e {
			t.Fatalf("%q → %q → %v %v (%v), want %v", spec, again, e2, given2, err, given)
		}
		for _, p := range e.Params {
			v, ok := given.Get(p.Name)
			if v2, ok2 := given2.Get(p.Name); v2 != v || ok2 != ok {
				t.Fatalf("%q → %q changed %s from %d to %d", spec, again, p.Name, v, v2)
			}
		}
		if _, err := e.New(given); err != nil {
			t.Fatalf("ParseSpec accepted %q but New rejects it: %v", spec, err)
		}
	})
}
