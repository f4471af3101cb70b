// Package driver is the one command line of the workload table
// (internal/workloads): cmd/sumeuler, cmd/matmul and cmd/apsp are this
// driver with their entry fixed, cmd/workloads is it with the entry
// chosen by -run. The shared flags are declared once, the per-workload
// flags come from the entry's parameter schema, and every command line
// goes parse → execute (run, then verify) → print. Exec is the same
// without the print: what a harness calls to run a command line it
// reports, such as a chaos soak's rows.
//
//	sumeuler -n 15000 -cores 8 -rts steal -trace     # simulated GpH (virtual time)
//	sumeuler -runtime native -eager -trace=html > t.html   # the wall-clock timeline, exported
//	matmul -n 396 -rts eden -q 4 -pes 17             # simulated Eden, Fig. 4 e)
//	apsp -n 400 -runtime native -workers 8 -eager    # real goroutines, shared heap
//	sumeuler -runtime native -stats json             # machine-readable counters
//	apsp -runtime eden -pes 8                        # distributed-heap PEs on goroutines
//	sumeuler -runtime eden -cluster 3 -pes 2         # 3 worker OS processes, 2 PEs each
//	sumeuler -runtime eden -faults "seed=7,drop=0.4" -deadline 10s   # chaos replay
//	workloads -run queens -n 10 -rts eden
//
// -runtime sim runs on the virtual-time simulator under the -rts
// configuration (plain | bigalloc | sync | steal | localheaps | eden,
// plus a workload's named variants such as matmul's rows).
// -runtime native runs the GpH program on the work-stealing runtime and
// prints the wall-clock time next to the simulated one. -runtime eden
// runs the Eden program on the native distributed-heap backend; with
// -cluster N the same program runs as N worker processes over a real
// -transport, built in every process from the spec string this driver
// sends, which carries every parameter of the instance. -faults injects
// a seeded fault plan (internal/faults grammar; a clause the backend
// never fires is a bad command line) and -deadline arms the
// deadlock watchdog; a failed run prints the structured error and,
// with -trace, the partial timeline up to the failure. Bare -trace
// prints the ASCII timeline after the report; -trace=csv|json|html
// writes that timeline's export (internal/trace) to stdout in place of
// the report, on every runtime. Every run is
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
	"strconv"
	"strings"
	"time"

	"parhask/internal/cluster"
	"parhask/internal/cost"
	"parhask/internal/eden"
	"parhask/internal/faults"
	"parhask/internal/gph"
	"parhask/internal/graph"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/trace"
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
	runtime, rts, stats, faults, transport        string
	cores, workers, pes, width, cluster, restarts int
	eager, profile                                bool
	trace                                         traceFormat
	deadline                                      time.Duration
}

// traceFormat is the value of -trace: "" (off), "ascii" (bare -trace:
// the timeline after the report) or an export format of trace.Log.
type traceFormat string

// IsBoolFlag lets -trace stand alone: bare -trace sets "true".
func (f *traceFormat) IsBoolFlag() bool { return true }

func (f *traceFormat) String() string { return string(*f) }

func (f *traceFormat) Set(s string) error {
	on, err := strconv.ParseBool(s)
	switch {
	case s == "csv" || s == "json" || s == "html":
		*f = traceFormat(s)
	case err != nil:
		return errors.New("want csv, json or html")
	case on:
		*f = "ascii"
	default:
		*f = ""
	}
	return nil
}

// export reports whether -trace writes an export in place of the report.
func (f traceFormat) export() bool { return f != "" && f != "ascii" }

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
	stdout, stderr io.Writer
}

// fail prints a diagnostic and returns the exit status.
func (r *cli) fail(code int, a ...any) int {
	fmt.Fprintln(r.stderr, append([]any{r.prog + ":"}, a...)...)
	return code
}

// ErrUsage is what an error of Exec wraps when Run would exit 2 on the
// command line: a flag that does not parse or validate, or a program
// the workload does not have. Nothing has run.
var ErrUsage = errors.New("bad command line")

// usageError is a command-line error; said marks one the flag package
// has printed already, with the usage.
type usageError struct {
	err  error
	said bool
}

func (e *usageError) Error() string   { return e.err.Error() }
func (e *usageError) Unwrap() []error { return []error{e.err, ErrUsage} }

func usage(err error) error { return &usageError{err: err} }

// Outcome is one run of a command line. A verified run has its Value;
// a failed one keeps what it still recorded: a partial timeline, or a
// cluster's attempt history.
type Outcome struct {
	Value graph.Value
	// Cluster is a -cluster run's result, with its restart history;
	// nil on the other runtimes.
	Cluster *cluster.Result

	where   string // the runtime, for the headline
	summary any    // the oracle's printable verdict
	clock   string
	stats   any
	// json is what -stats json prints instead of the text report; nil
	// on the simulated runtimes, which have no machine-readable report.
	json  any
	notes []string
	trace *trace.Log
}

// Run is Main without the process: it parses argv, runs the workload,
// verifies it, prints the report and returns the exit status.
func Run(name string, argv []string, stdout, stderr io.Writer) int {
	r, err := parse(name, argv, stdout, stderr)
	var out *Outcome
	if err == nil {
		out, err = r.execute()
	}
	var ue *usageError
	switch {
	case err == nil:
		return r.print(out)
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if !ue.said {
			r.fail(2, err)
		}
		return 2
	}
	r.fail(1, err)
	switch {
	case out == nil || out.trace == nil:
	case r.o.trace.export():
		if err := r.export(out.trace, fmt.Sprintf("%s (FAILED, partial timeline): %v", r.headline(out.where), err)); err != nil {
			r.fail(1, err)
		}
	case r.o.trace != "":
		fmt.Fprintln(stdout, "partial timeline of the failed run:")
		r.timeline(out.trace)
	}
	return 1
}

// Exec is Run without the printing: it parses argv as Run does, runs
// the job and checks its result against the workload's oracle. It
// returns the verified outcome, or the error Run exits non-zero on:
// one that wraps ErrUsage for exit 2, any other for exit 1 (a failed
// run, or a result the oracle refuses). -h returns flag.ErrHelp.
func Exec(name string, argv []string) (*Outcome, error) {
	r, err := parse(name, argv, io.Discard, io.Discard)
	if err != nil {
		return nil, err
	}
	return r.execute()
}

// execute runs the job the flags name on its runtime and checks the
// result against the oracle.
func (r *cli) execute() (*Outcome, error) {
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
	out, err := run()
	if errors.Is(err, workloads.ErrNoForm) {
		return nil, usage(err) // the flags asked for a program the workload is not
	}
	if err != nil {
		return out, err
	}
	if out.summary, err = r.inst.Check(out.Value); err != nil {
		return nil, fmt.Errorf("RESULT MISMATCH: %w", err)
	}
	return out, nil
}

// parse declares the flags, parses and validates argv — failing fast,
// before anything is generated or launched — and builds the instance.
// Its error is flag.ErrHelp or wraps ErrUsage.
func parse(name string, argv []string, stdout, stderr io.Writer) (*cli, error) {
	r := &cli{prog: name, stdout: stdout, stderr: stderr}
	byFlag := name == ""
	if byFlag {
		r.prog, name = "workloads", runFlag(argv)
	}
	e, err := workloads.Lookup(name)
	if err != nil {
		return r, usage(err)
	}
	fs := flag.NewFlagSet(r.prog, flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &r.o
	given := newFlags(fs, e, o, byFlag)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return r, err
		}
		return r, &usageError{err: err, said: true}
	}

	if o.runtime != "sim" && o.runtime != "native" && o.runtime != "eden" {
		return r, usage(fmt.Errorf("unknown -runtime %q", o.runtime))
	}
	if o.trace.export() && o.stats == "json" {
		return r, usage(errors.New("-trace=" + string(o.trace) + " and -stats json both replace the report: pick one"))
	}
	if err := cluster.CheckFlags(o.runtime, o.cluster, o.transport, o.restarts); err != nil {
		return r, usage(err)
	}
	backend := o.runtime
	if o.cluster > 0 {
		backend = "cluster"
	}
	if r.inj, err = faults.CLIInjector(o.faults, o.deadline, backend); err != nil {
		return r, usage(err)
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
		return r, usage(err)
	}
	return r, nil
}

// newFlags declares the shared flags into o, -run when the entry is
// chosen by flag, and one flag per parameter of e that has a usage
// line; it returns where the parameter flags land.
func newFlags(fs *flag.FlagSet, e *workloads.Entry, o *options, byFlag bool) map[string]*uint64 {
	if byFlag {
		fs.String("run", e.Name, "workload: "+strings.Join(workloads.Names(), " | "))
	}
	fs.StringVar(&o.runtime, "runtime", "sim", "execution runtime: sim (virtual time) | native (real goroutines) | eden (distributed-heap PEs on real goroutines)")
	fs.StringVar(&o.rts, "rts", e.DefaultRTS, "simulated runtime: plain | bigalloc | sync | steal | localheaps | eden, or a variant of the workload (matmul: rows)")
	fs.IntVar(&o.cores, "cores", 8, "simulated physical cores")
	fs.IntVar(&o.workers, "workers", 0, "native worker goroutines (default: GOMAXPROCS)")
	fs.IntVar(&o.pes, "pes", 0, "Eden PEs (default: the topology's size or the cores on the simulator, GOMAXPROCS natively, 2 per cluster process)")
	fs.Var(&o.trace, "trace", "print the activity timeline after the report; -trace=csv|json|html writes its export instead of the report")
	fs.IntVar(&o.width, "width", 100, "trace width")
	fs.StringVar(&o.stats, "stats", "text", "native stats format: text | json (per-worker counters, machine-readable, json output only)")
	fs.StringVar(&o.faults, "faults", "", "fault-injection spec for the native runtimes (internal/faults grammar), e.g. \"seed=7,panic-spark=3\"")
	fs.DurationVar(&o.deadline, "deadline", 0, "native deadlock-watchdog deadline, e.g. 10s (0 = disabled)")
	fs.IntVar(&o.cluster, "cluster", 0, "run -runtime eden as N separate worker OS processes, -pes PEs each (0 = single process)")
	fs.StringVar(&o.transport, "transport", "tcp", "cluster transport: tcp | unix")
	fs.IntVar(&o.restarts, "restarts", 0, "cluster restart budget: respawn the workers and retry the run up to N times after a process death (0 = fail on the first death)")
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
	return cluster.Config{
		Procs: o.cluster, PerProc: o.perProc(), Transport: o.transport,
		Spec:   r.inst.Spec(),
		Faults: o.faults, EventLog: o.trace != "", Deadline: o.deadline,
		Restarts: o.restarts,
	}
}

func blackholing(eager bool) string {
	if eager {
		return "eager"
	}
	return "lazy"
}

// print writes the report of a verified run: what -stats json or
// -trace=FORMAT asks for, or the text report.
func (r *cli) print(out *Outcome) int {
	if r.o.stats == "json" && out.json != nil {
		data, err := json.MarshalIndent(out.json, "", "  ")
		if err != nil {
			return r.fail(1, err)
		}
		fmt.Fprintln(r.stdout, string(data))
		return 0
	}
	if r.o.trace.export() {
		if out.trace == nil {
			return r.fail(1, "the run recorded no timeline")
		}
		if err := r.export(out.trace, r.headline(out.where)); err != nil {
			return r.fail(1, err)
		}
		return 0
	}
	clock := out.clock
	if r.o.runtime == "native" {
		clock += r.simulated()
	}
	fmt.Fprintln(r.stdout, r.headline(out.where))
	fmt.Fprintf(r.stdout, "result   = verified against %s (%v)\n", r.inst.Entry.Oracle, out.summary)
	fmt.Fprintf(r.stdout, "runtime  = %s\n", clock)
	fmt.Fprintf(r.stdout, "stats    = %+v\n", out.stats)
	for _, n := range out.notes {
		fmt.Fprint(r.stdout, n)
	}
	if r.o.trace != "" && out.trace != nil {
		r.timeline(out.trace)
	}
	return 0
}

// simulated is the native run's side-by-side: the same program's time
// on the simulator, or "" where it cannot run there.
func (r *cli) simulated() string {
	o := &r.o
	cfg := gph.WorkStealingConfig(o.cores)
	cfg.EagerBlackholing = o.eager
	cfg.ResidentBytes = r.inst.ResidentBytes
	sim, err := r.inst.Sim("", cfg.Costs)
	if err != nil {
		return ""
	}
	res, err := gph.Run(cfg, sim)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("   vs %s (virtual, steal/%d cores)", trace.FmtDur(res.Elapsed), o.cores)
}

// headline names the instance and the runtime it ran on.
func (r *cli) headline(where string) string {
	return fmt.Sprintf("%s on %s [%s]", r.inst.Title(), where, r.inst.Spec())
}

func (r *cli) timeline(tl *trace.Log) {
	fmt.Fprint(r.stdout, tl.Render(r.o.width))
	fmt.Fprint(r.stdout, tl.Summary())
}

// export writes tl to stdout in the format -trace names; title heads
// the HTML page.
func (r *cli) export(tl *trace.Log, title string) error {
	switch r.o.trace {
	case "csv":
		return tl.WriteCSV(r.stdout)
	case "json":
		return tl.WriteJSON(r.stdout)
	default:
		return tl.WriteHTML(r.stdout, title)
	}
}

// runNative runs the GpH program on the real work-stealing runtime.
func (r *cli) runNative() (*Outcome, error) {
	o := &r.o
	cfg := native.NewConfig(o.workers)
	cfg.EagerBlackholing = o.eager
	cfg.EventLog = o.trace != ""
	cfg.Faults = r.inj
	cfg.Deadline = o.deadline
	prog, err := r.inst.GpH()
	if err != nil {
		return nil, err
	}
	res, err := native.Run(cfg, prog)
	if res == nil {
		return nil, err
	}
	out := &Outcome{
		where: fmt.Sprintf("native runtime, %d workers (%s blackholing)", res.Workers, blackholing(o.eager)),
		Value: res.Value, trace: res.Trace(),
		clock: fmt.Sprintf("%v (wall clock)", res.Wall()),
		stats: fmt.Sprintf("%+v (duplicate thunk entries: %d)", res.Stats, res.Stats.DupEntries),
	}
	if err == nil && o.stats == "json" {
		out.json = res.Report()
	}
	return out, err
}

// runCluster runs the Eden program as worker OS processes.
func (r *cli) runCluster() (*Outcome, error) {
	if err := r.inst.CanEden(); err != nil {
		return nil, err
	}
	cfg := r.clusterConfig()
	res, err := cluster.Run(cfg)
	if res == nil || err != nil {
		return &Outcome{Cluster: res}, err
	}
	out := &Outcome{
		where: fmt.Sprintf("a %d-process Eden cluster (%s), %d PEs per process, GOMAXPROCS %s by rank",
			res.Procs, cfg.Transport, res.PerProc, strings.Trim(fmt.Sprint(res.GOMAXPROCS), "[]")),
		Value: res.Value, Cluster: res, json: res, stats: res.Total,
		clock: fmt.Sprintf("%v (root wall clock; %v including launch and drain)",
			time.Duration(res.WallNS), time.Duration(res.CoordNS)),
		notes: []string{res.RecoverySummary()},
	}
	out.trace, _ = res.TraceLog() // a timeline that does not decode is not worth failing a verified run for
	return out, nil
}

// runEden runs the Eden program on the native distributed-heap backend.
func (r *cli) runEden() (*Outcome, error) {
	prog, err := r.inst.Eden(cost.Model{})
	if err != nil {
		return nil, err
	}
	cfg := nativeeden.NewConfig(r.o.pes)
	cfg.EventLog = r.o.trace != ""
	cfg.Faults = r.inj
	cfg.Deadline = r.o.deadline
	res, err := nativeeden.Run(cfg, prog)
	if res == nil {
		return nil, err
	}
	out := &Outcome{
		where: fmt.Sprintf("native Eden, %d PEs (distributed heaps, real goroutines)", res.PEs),
		Value: res.Value, stats: res.Stats, trace: res.Trace(),
		clock: fmt.Sprintf("%v (wall clock)", res.Wall()),
	}
	if err == nil && r.o.stats == "json" {
		out.json = res.Report()
	}
	return out, err
}

// simPEs is the simulated PE count: -pes, else one more than the
// processes of a fixed Eden topology (the root gets a PE of its own, as
// in the paper's 9- and 17-PE runs), else one per core.
func (r *cli) simPEs() int {
	switch {
	case r.o.pes > 0:
		return r.o.pes
	case r.inst.EdenProcs > 0:
		return r.inst.EdenProcs + 1
	default:
		return r.o.cores
	}
}

// runSimEden runs the Eden program on the virtual-time Eden simulator.
func (r *cli) runSimEden() (*Outcome, error) {
	cfg := eden.NewConfig(r.simPEs(), r.o.cores)
	prog, err := r.inst.Eden(cfg.Costs)
	if err != nil {
		return nil, err
	}
	res, err := eden.Run(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		where: fmt.Sprintf("Eden, %d PEs / %d cores", cfg.PEs, r.o.cores),
		Value: res.Value, stats: res.Stats, trace: res.Trace,
		clock: trace.FmtDur(res.Elapsed) + " (virtual)",
	}, nil
}

// runSimGpH runs the cost-charged GpH program on one of the simulated
// shared-heap configurations or — when -rts names a variant of the
// workload instead — on the work-stealing configuration.
func (r *cli) runSimGpH() (*Outcome, error) {
	o, inst := &r.o, r.inst
	mk, variant, kind := gphConfigs[o.rts], "", o.rts
	if mk == nil {
		mk, variant, kind = gph.WorkStealingConfig, o.rts, "steal, "+o.rts+"-parallel"
	}
	cfg := mk(o.cores)
	cfg.EagerBlackholing = o.eager
	cfg.ResidentBytes = inst.ResidentBytes
	prog, err := inst.Sim(variant, cfg.Costs)
	if err != nil {
		return nil, fmt.Errorf("-rts %s: %w", o.rts, err)
	}
	res, err := gph.Run(cfg, prog)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		where: fmt.Sprintf("GpH (%s, %s blackholing), %d cores", kind, blackholing(o.eager), o.cores),
		Value: res.Value, trace: res.Trace,
		clock: trace.FmtDur(res.Elapsed) + " (virtual)",
		stats: fmt.Sprintf("%+v (duplicate thunk entries: %d)", res.Stats, res.Stats.DupEntries),
	}
	if o.profile {
		out.notes = append(out.notes, res.GranularityProfile().String())
	}
	return out, nil
}
