// Package driver is the one command line of the workload table
// (internal/workloads): cmd/sumeuler, cmd/matmul and cmd/apsp are this
// driver with their entry fixed, cmd/workloads is it with the entry
// chosen by -run. The shared flags are declared once, the per-workload
// flags come from the entry's parameter schema, and run → verify →
// print exists once per runtime:
//
//	sumeuler -n 15000 -cores 8 -rts steal -trace     # simulated GpH (virtual time)
//	matmul -n 396 -rts eden -q 4 -pes 17             # simulated Eden, Fig. 4 e)
//	apsp -n 400 -runtime native -workers 8 -eager    # real goroutines, shared heap
//	sumeuler -runtime native -stats json             # machine-readable counters
//	apsp -runtime eden -pes 8                        # distributed-heap PEs on goroutines
//	sumeuler -runtime eden -cluster 3 -pes 2         # 3 worker OS processes, 2 PEs each
//	sumeuler -runtime eden -faults "seed=7,drop=0.4" -deadline 10s   # chaos replay
//	workloads -run queens -n 10 -rts eden
//
// -runtime sim runs on the virtual-time simulator under the -rts
// configuration (plain | bigalloc | sync | steal | localheaps | gum |
// eden, plus a workload's named variants such as matmul's rows).
// -runtime native runs the GpH program on the work-stealing runtime and
// prints the wall-clock time next to the simulated one. -runtime eden
// runs the Eden program on the native distributed-heap backend; with
// -cluster N the same program runs as N worker processes over a real
// -transport, built in every process from the spec string this driver
// sends, which carries every parameter of the instance. -faults injects
// a seeded fault plan (internal/faults grammar) and -deadline arms the
// deadlock watchdog; a failed run prints the structured error and,
// with -trace, the partial timeline up to the failure. Every run is
// verified against the workload's sequential oracle: exit 0 means the
// result is right, 1 a failed or wrong run, 2 a bad command line.
package driver

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"parhask/internal/cluster"
	"parhask/internal/cost"
	"parhask/internal/eden"
	"parhask/internal/faults"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/gum"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/trace"
	"parhask/internal/tune"
	"parhask/internal/workloads"
)

// Main runs the driver for the named workload ("" lets -run choose)
// and exits with its status. It first lets the process become a cluster
// worker if a coordinator launched it as one.
func Main(name string) {
	cluster.MaybeWorker()
	os.Exit(Run(name, os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the flags every workload shares.
type options struct {
	runtime, rts, stats, faults, backoff, transport string
	cores, workers, pes, width, cluster, restarts   int
	trace, eager, profile, reconnect                bool
	deadline                                        time.Duration
}

// gphConfigs are the simulated GpH runtime configurations of -rts.
var gphConfigs = map[string]func(cores int) gph.Config{
	"plain":      gph.PlainGHC69,
	"bigalloc":   gph.BigAllocArea,
	"sync":       gph.ImprovedSync,
	"steal":      gph.WorkStealingConfig,
	"localheaps": gph.LocalHeapsConfig,
}

// cli is one invocation: the parsed flags, the instance, and where the
// output goes.
type cli struct {
	prog           string
	o              options
	inst           *workloads.Instance
	inj            *faults.Injector
	backoff        *tune.Backoff
	stdout, stderr io.Writer
}

// fail prints a diagnostic and returns the exit status.
func (r *cli) fail(code int, a ...any) int {
	fmt.Fprintln(r.stderr, append([]any{r.prog + ":"}, a...)...)
	return code
}

// Run is Main without the process: it parses argv, runs the workload,
// verifies it, prints the report and returns the exit status.
func Run(name string, argv []string, stdout, stderr io.Writer) int {
	r, code := parse(name, argv, stdout, stderr)
	if r == nil {
		return code
	}
	run := r.runSimGpH
	switch o := &r.o; {
	case o.runtime == "native":
		run = r.runNative
	case o.cluster > 0:
		run = r.runCluster
	case o.runtime == "eden":
		run = r.runEden
	case o.rts == "eden":
		run = r.runSimEden
	}
	rep, err := run()
	if errors.Is(err, workloads.ErrNoForm) {
		return r.fail(2, err) // the flags asked for a program the workload is not
	}
	if err != nil {
		r.fail(1, err)
		if r.o.trace && rep.trace != nil {
			fmt.Fprintln(stdout, "partial timeline of the failed run:")
			r.timeline(rep.trace)
		}
		return 1
	}
	return r.finish(rep)
}

// parse declares the flags, parses and validates argv — failing fast,
// before anything is generated or launched — and builds the instance.
// It returns nil and the exit status when there is nothing to run.
func parse(name string, argv []string, stdout, stderr io.Writer) (*cli, int) {
	r := &cli{prog: name, stdout: stdout, stderr: stderr}
	byFlag := name == ""
	if byFlag {
		r.prog, name = "workloads", runFlag(argv)
	}
	e, err := workloads.Lookup(name)
	if err != nil {
		return nil, r.fail(2, err)
	}
	fs := flag.NewFlagSet(r.prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &r.o
	given := newFlags(fs, e, o, byFlag)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2
	}

	if o.runtime != "sim" && o.runtime != "native" && o.runtime != "eden" {
		return nil, r.fail(2, fmt.Sprintf("unknown -runtime %q", o.runtime))
	}
	if err := cluster.CheckFlags(o.runtime, o.cluster, o.transport, o.restarts); err != nil {
		return nil, r.fail(2, err)
	}
	if r.inj, err = faults.CLIInjector(o.faults, o.deadline, o.runtime); err != nil {
		return nil, r.fail(2, err)
	}
	if o.backoff != "" {
		if o.runtime != "native" {
			return nil, r.fail(2, fmt.Sprintf("-backoff requires -runtime native (got %q)", o.runtime))
		}
		if r.backoff, err = tune.ParseBackoff(o.backoff); err != nil {
			return nil, r.fail(2, "-backoff:", err)
		}
	}
	var args workloads.Args
	for name, v := range given {
		args = args.With(name, *v)
	}
	for _, p := range e.Params {
		if p.PerPE && args.Val(p.Name) == 0 {
			args = args.With(p.Name, uint64(o.edenPEs()))
		}
	}
	if r.inst, err = e.New(args); err != nil {
		return nil, r.fail(2, err)
	}
	return r, 0
}

// newFlags declares the shared flags into o, -run when the entry is
// chosen by flag, and one flag per parameter of e that has a usage
// line; it returns where the parameter flags land.
func newFlags(fs *flag.FlagSet, e *workloads.Entry, o *options, byFlag bool) map[string]*uint64 {
	if byFlag {
		fs.String("run", e.Name, "workload: "+strings.Join(workloads.Names(), " | "))
	}
	fs.StringVar(&o.runtime, "runtime", "sim", "execution runtime: sim (virtual time) | native (real goroutines) | eden (distributed-heap PEs on real goroutines)")
	fs.StringVar(&o.rts, "rts", e.DefaultRTS, "simulated runtime: plain | bigalloc | sync | steal | localheaps | gum | eden, or a variant of the workload (matmul: rows)")
	fs.IntVar(&o.cores, "cores", 8, "simulated physical cores")
	fs.IntVar(&o.workers, "workers", 0, "native worker goroutines (default: GOMAXPROCS)")
	fs.IntVar(&o.pes, "pes", 0, "Eden PEs (default: the topology's size or the cores on the simulator, GOMAXPROCS natively, 2 per cluster process)")
	fs.BoolVar(&o.trace, "trace", false, "print the activity timeline")
	fs.IntVar(&o.width, "width", 100, "trace width")
	fs.StringVar(&o.stats, "stats", "text", "native stats format: text | json (per-worker counters, machine-readable, json output only)")
	fs.StringVar(&o.faults, "faults", "", "fault-injection spec for the native runtimes (internal/faults grammar), e.g. \"seed=7,panic-spark=3\"")
	fs.DurationVar(&o.deadline, "deadline", 0, "native deadlock-watchdog deadline, e.g. 10s (0 = disabled)")
	fs.StringVar(&o.backoff, "backoff", "", "native runtime: idle backoff policy, e.g. \"spin=64,min=10us,max=1280us,park=8\" (empty = default)")
	fs.IntVar(&o.cluster, "cluster", 0, "run -runtime eden as N separate worker OS processes, -pes PEs each (0 = single process)")
	fs.StringVar(&o.transport, "transport", "tcp", "cluster transport: tcp | unix")
	fs.IntVar(&o.restarts, "restarts", 0, "cluster restart budget: respawn the workers and retry the run up to N times after a process death (0 = fail on the first death)")
	fs.BoolVar(&o.reconnect, "reconnect", true, "cluster: let a worker whose link breaks redial and resume in place")
	fs.BoolVar(&o.eager, "eager", false, "eager black-holing (GpH)")
	fs.BoolVar(&o.profile, "profile", false, "print the thread-granularity profile (simulated GpH runtimes)")
	given := map[string]*uint64{}
	for _, p := range e.Params {
		if p.Usage != "" {
			given[p.Name] = fs.Uint64(p.Name, p.Default, p.Usage)
		}
	}
	return given
}

// runFlag finds the value of -run in argv before the flag set exists
// (the entry it names decides which flags there are).
func runFlag(argv []string) string {
	for i, a := range argv {
		a = strings.TrimPrefix(strings.TrimPrefix(a, "-"), "-")
		if v, ok := strings.CutPrefix(a, "run="); ok {
			return v
		}
		if a == "run" && i+1 < len(argv) {
			return argv[i+1]
		}
	}
	return "parfib"
}

// perProc is the PE count of one cluster worker process.
func (o *options) perProc() int {
	if o.pes > 0 {
		return o.pes
	}
	return 2
}

// edenPEs is how many processing elements an Eden program of this run
// can spread over: what a PerPE parameter left at 0 becomes.
func (o *options) edenPEs() int {
	switch {
	case o.cluster > 0:
		return o.cluster * o.perProc()
	case o.runtime == "eden":
		return nativeeden.NewConfig(o.pes).PEs
	default:
		return o.cores
	}
}

// clusterConfig is the cluster run these flags describe. The spec
// carries every parameter of the instance, so the worker processes
// build exactly the instance this process verifies against.
func (r *cli) clusterConfig() cluster.Config {
	o := &r.o
	cfg := cluster.Config{
		Procs: o.cluster, PerProc: o.perProc(), Transport: o.transport,
		Spec:   r.inst.Spec(),
		Faults: o.faults, EventLog: o.trace, Deadline: o.deadline,
	}
	if o.restarts > 0 {
		cfg.Restart = &cluster.Restart{Max: o.restarts}
	}
	if !o.reconnect {
		cfg.ReconnectWindow = -1
	}
	return cfg
}

func blackholing(eager bool) string {
	if eager {
		return "eager"
	}
	return "lazy"
}

// report is what one run hands to the shared verify-and-print tail. A
// failed run returns it too, for whatever timeline it still recorded.
type report struct {
	where string // the runtime, for the headline
	value graph.Value
	clock string
	stats any
	// json is what -stats json prints instead of the text report; nil on
	// the simulated runtimes, which have no machine-readable report.
	json  any
	notes []string
	trace *trace.Log
}

// finish verifies the result against the oracle and prints the report.
func (r *cli) finish(rep report) int {
	summary, err := r.inst.Check(rep.value)
	if err != nil {
		return r.fail(1, "RESULT MISMATCH:", err)
	}
	if r.o.stats == "json" && rep.json != nil {
		out, err := json.MarshalIndent(rep.json, "", "  ")
		if err != nil {
			return r.fail(1, err)
		}
		fmt.Fprintln(r.stdout, string(out))
		return 0
	}
	fmt.Fprintf(r.stdout, "%s on %s [%s]\n", r.inst.Title(), rep.where, r.inst.Spec())
	fmt.Fprintf(r.stdout, "result   = verified against %s (%v)\n", r.inst.Entry.Oracle, summary)
	fmt.Fprintf(r.stdout, "runtime  = %s\n", rep.clock)
	fmt.Fprintf(r.stdout, "stats    = %+v\n", rep.stats)
	for _, n := range rep.notes {
		fmt.Fprint(r.stdout, n)
	}
	if r.o.trace && rep.trace != nil {
		r.timeline(rep.trace)
	}
	return 0
}

func (r *cli) timeline(tl *trace.Log) {
	fmt.Fprint(r.stdout, tl.Render(r.o.width))
	fmt.Fprint(r.stdout, tl.Summary())
}

// runNative runs the GpH program on the real work-stealing runtime.
func (r *cli) runNative() (report, error) {
	o, inst := &r.o, r.inst
	cfg := native.NewConfig(o.workers)
	cfg.EagerBlackholing = o.eager
	cfg.EventLog = o.trace
	cfg.Faults = r.inj
	cfg.Deadline = o.deadline
	cfg.Backoff = r.backoff
	prog, err := inst.GpH()
	if err != nil {
		return report{}, err
	}
	res, err := native.Run(cfg, prog)
	if res == nil {
		return report{}, err
	}
	rep := report{
		where: fmt.Sprintf("native runtime, %d workers (%s blackholing)", res.Workers, blackholing(o.eager)),
		value: res.Value, trace: res.Trace(),
		clock: fmt.Sprintf("%v (wall clock)", res.Wall()),
		stats: fmt.Sprintf("%+v (duplicate thunk entries: %d)", res.Stats, res.Stats.DupEntries),
	}
	if err != nil {
		return rep, err
	}
	if o.stats == "json" {
		rep.json = res.Report()
		return rep, nil
	}
	// The same program on the simulator, for the side-by-side.
	scfg := gph.WorkStealingConfig(o.cores)
	scfg.EagerBlackholing = o.eager
	scfg.ResidentBytes = inst.ResidentBytes
	if sim, err := inst.Sim("", scfg.Costs); err == nil {
		if sres, err := gph.Run(scfg, sim); err == nil {
			rep.clock += fmt.Sprintf("   vs %s (virtual, steal/%d cores)", trace.FmtDur(sres.Elapsed), o.cores)
		}
	}
	return rep, nil
}

// runCluster runs the Eden program as worker OS processes.
func (r *cli) runCluster() (report, error) {
	if err := r.inst.CanEden(); err != nil {
		return report{}, err
	}
	cfg := r.clusterConfig()
	res, err := cluster.RunSupervised(cfg)
	if err != nil {
		return report{}, err
	}
	rep := report{
		where: fmt.Sprintf("a %d-process Eden cluster (%s), %d PEs per process", res.Procs, cfg.Transport, res.PerProc),
		value: res.Value, json: res, stats: res.Total,
		clock: fmt.Sprintf("%v (root wall clock; %v including launch and drain)",
			time.Duration(res.WallNS), time.Duration(res.CoordNS)),
		notes: []string{res.RecoverySummary()},
	}
	rep.trace, _ = res.TraceLog() // a timeline that does not decode is not worth failing a verified run for
	return rep, nil
}

// runEden runs the Eden program on the native distributed-heap backend.
func (r *cli) runEden() (report, error) {
	prog, err := r.inst.Eden(cost.Model{})
	if err != nil {
		return report{}, err
	}
	cfg := nativeeden.NewConfig(r.o.pes)
	cfg.EventLog = r.o.trace
	cfg.Faults = r.inj
	cfg.Deadline = r.o.deadline
	res, err := nativeeden.Run(cfg, prog)
	if res == nil {
		return report{}, err
	}
	rep := report{
		where: fmt.Sprintf("native Eden, %d PEs (distributed heaps, real goroutines)", res.PEs),
		value: res.Value, stats: res.Stats, trace: res.Trace(),
		clock: fmt.Sprintf("%v (wall clock)", res.Wall()),
	}
	if err == nil && r.o.stats == "json" {
		rep.json = res.Report()
	}
	return rep, err
}

// simPEs is the simulated PE count: -pes, else one more than the
// processes of a fixed Eden topology (the root gets a PE of its own, as
// in the paper's 9- and 17-PE runs), else one per core.
func (r *cli) simPEs() int {
	switch {
	case r.o.pes > 0:
		return r.o.pes
	case r.o.rts == "eden" && r.inst.EdenProcs > 0:
		return r.inst.EdenProcs + 1
	default:
		return r.o.cores
	}
}

// runSimEden runs the Eden program on the virtual-time Eden simulator.
func (r *cli) runSimEden() (report, error) {
	cfg := eden.NewConfig(r.simPEs(), r.o.cores)
	prog, err := r.inst.Eden(cfg.Costs)
	if err != nil {
		return report{}, err
	}
	res, err := eden.Run(cfg, prog)
	if err != nil {
		return report{}, err
	}
	return report{
		where: fmt.Sprintf("Eden, %d PEs / %d cores", cfg.PEs, r.o.cores),
		value: res.Value, stats: res.Stats, trace: res.Trace,
		clock: trace.FmtDur(res.Elapsed) + " (virtual)",
	}, nil
}

// runSimGpH runs the cost-charged GpH program on simulated GUM, on one
// of the simulated shared-heap configurations, or — when -rts names a
// variant of the workload instead — on the work-stealing configuration.
func (r *cli) runSimGpH() (report, error) {
	o, inst := &r.o, r.inst
	if o.rts == "gum" {
		cfg := gum.NewConfig(r.simPEs(), o.cores)
		prog, err := inst.Sim("", cfg.Costs)
		if err != nil {
			return report{}, err
		}
		res, err := gum.Run(cfg, prog)
		if err != nil {
			return report{}, err
		}
		return report{
			where: fmt.Sprintf("GUM (distributed GpH), %d PEs / %d cores", cfg.PEs, o.cores),
			value: res.Value, stats: res.Stats, trace: res.Trace,
			clock: trace.FmtDur(res.Elapsed) + " (virtual)",
		}, nil
	}
	mk, variant, kind := gphConfigs[o.rts], "", o.rts
	if mk == nil {
		mk, variant, kind = gph.WorkStealingConfig, o.rts, "steal, "+o.rts+"-parallel"
	}
	cfg := mk(o.cores)
	cfg.EagerBlackholing = o.eager
	cfg.ResidentBytes = inst.ResidentBytes
	prog, err := inst.Sim(variant, cfg.Costs)
	if err != nil {
		return report{}, fmt.Errorf("-rts %s: %w", o.rts, err)
	}
	res, err := gph.Run(cfg, prog)
	if err != nil {
		return report{}, err
	}
	rep := report{
		where: fmt.Sprintf("GpH (%s, %s blackholing), %d cores", kind, blackholing(o.eager), o.cores),
		value: res.Value, trace: res.Trace,
		clock: trace.FmtDur(res.Elapsed) + " (virtual)",
		stats: fmt.Sprintf("%+v (duplicate thunk entries: %d)", res.Stats, res.Stats.DupEntries),
	}
	if o.profile {
		rep.notes = append(rep.notes, res.GranularityProfile().String())
	}
	return rep, nil
}
