package driver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"parhask/internal/cluster"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/workloads"
)

// TestMain lets the -cluster runs re-execute this binary as their
// worker processes.
func TestMain(m *testing.M) {
	cluster.MaybeWorker()
	os.Exit(m.Run())
}

func run(name string, argv ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = Run(name, argv, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunsVerifyAndReport drives every runtime of the driver at toy
// size. The phrases are the ones the CI smoke steps and the docs grep
// for; exit 0 means the oracle agreed.
func TestRunsVerifyAndReport(t *testing.T) {
	for _, c := range []struct {
		name  string
		argv  string
		wants []string
	}{
		{"sumeuler", "-n 300 -chunks 6", []string{"sumEuler [1..300] on GpH (steal, lazy blackholing), 8 cores", "result   = verified against sieve oracle (27398)", "(virtual)"}},
		{"sumeuler", "-n 300 -rts plain -eager -profile", []string{"GpH (plain, eager blackholing)"}},
		{"sumeuler", "-n 300 -rts eden -cores 4", []string{"on Eden, 4 PEs / 4 cores"}},
		{"sumeuler", "-n 300 -runtime native -workers 2 -chunks 6", []string{"on native runtime, 2 workers (lazy blackholing)", "(wall clock)   vs ", "(virtual, steal/8 cores)"}},
		{"sumeuler", "-n 300 -runtime eden -pes 3", []string{"on native Eden, 3 PEs", "verified against sieve oracle"}},
		{"sumeuler", "-n 300 -runtime eden -cluster 2 -pes 2 -deadline 60s",
			[]string{"on a 2-process Eden cluster (tcp), 2 PEs per process", "result   = ", "verified against sieve oracle", "including launch and drain"}},
		{"matmul", "-n 24 -block 6", []string{"matmul 24x24 on GpH (steal", "verified against sequential oracle"}},
		{"matmul", "-n 24 -rts rows", []string{"GpH (steal, rows-parallel"}},
		{"matmul", "-n 24 -rts eden -q 2", []string{"on Eden, 5 PEs / 8 cores"}},
		{"matmul", "-n 24 -block 6 -runtime native -workers 2 -eager", []string{"(eager blackholing)"}},
		{"matmul", "-n 24 -q 2 -runtime eden -cluster 2 -pes 2", []string{"2-process Eden cluster (tcp)", "verified against sequential oracle"}},
		{"apsp", "-n 12 -cores 3", []string{"apsp 12 nodes on Eden, 4 PEs / 3 cores", "ring=3", "result   = verified against Floyd"}},
		{"apsp", "-n 12 -rts steal -eager", []string{"duplicate thunk entries: 0"}},
		{"apsp", "-n 12 -runtime native -workers 2", []string{"duplicate thunk entries: "}},
		{"apsp", "-n 12 -runtime eden -pes 2 -ring 3", []string{"on native Eden, 2 PEs", "ring=3"}},
		{"apsp", "-n 12 -runtime eden -cluster 3 -pes 1 -transport unix -deadline 60s",
			[]string{"result   = verified against Floyd", "3-process Eden cluster (unix)", "ring=3"}},
		{"", "-run parfib -n 14 -cutoff 8", []string{"parfib 14 on GpH (steal", "verified against iterative Fibonacci (377)"}},
		{"", "-run queens -n 6 -rts eden", []string{"queens 6 on Eden, 8 PEs / 8 cores", "(4)"}},
		{"", "-run=mandel -n 16 -rts steal", []string{"mandel 16 px wide on GpH (steal", "height=0"}},
		{"", "-run fuzz -n 40 -runtime native -workers 2", []string{"fuzz DAG of 40 nodes on native runtime"}},
		{"", "-run apsp -runtime eden -cluster 2 -n 12", []string{"apsp 12 nodes on a 2-process Eden cluster (tcp), 2 PEs per process", "ring=4"}},
	} {
		code, out, errs := run(c.name, strings.Fields(c.argv)...)
		if code != 0 {
			t.Errorf("%s %s: exit %d\n%s%s", c.name, c.argv, code, out, errs)
			continue
		}
		for _, w := range c.wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s %s: output lacks %q:\n%s", c.name, c.argv, w, out)
			}
		}
		if strings.Contains(out, "legend:") {
			t.Errorf("%s %s: printed a timeline without -trace", c.name, c.argv)
		}
	}
}

// TestTraceRendersTimelines: bare -trace prints the report, then the
// ASCII timeline.
func TestTraceRendersTimelines(t *testing.T) {
	for _, c := range []struct{ name, argv, lane string }{
		{"sumeuler", "-n 300 -trace -width 60", "cap7"},
		{"sumeuler", "-n 300 -runtime native -workers 2 -trace", "legend:"},
		{"apsp", "-n 12 -runtime eden -pes 2 -trace", "pe1"},
		{"sumeuler", "-n 300 -runtime eden -cluster 3 -pes 2 -trace -width 120 -deadline 60s", "pe5"},
	} {
		code, out, errs := run(c.name, strings.Fields(c.argv)...)
		report, timeline := strings.Index(out, "result   = verified"), strings.Index(out, "legend:")
		if code != 0 || !strings.Contains(out, c.lane) || report < 0 || timeline < report {
			t.Errorf("%s %s: exit %d, want the report, then a timeline with lane %q:\n%s%s", c.name, c.argv, code, c.lane, out, errs)
		}
	}
}

// TestTraceExports: -trace=csv|json|html writes one complete export of
// the run's timeline in place of the report, on every runtime.
func TestTraceExports(t *testing.T) {
	for _, c := range []struct{ name, argv, format, lane string }{
		{"sumeuler", "-n 300", "json", "cap7"},
		{"sumeuler", "-n 300 -rts eden -cores 4", "csv", "pe3"},
		{"sumeuler", "-n 300 -runtime native -workers 2 -eager", "html", "w1"},
		{"sumeuler", "-n 300 -runtime native -workers 2", "json", "w1"},
		{"apsp", "-n 12 -runtime eden -pes 2", "csv", "pe1"},
		{"sumeuler", "-n 300 -runtime eden -pes 3", "html", "pe2"},
		{"sumeuler", "-n 300 -runtime eden -cluster 2 -pes 1 -deadline 60s", "json", "pe1"},
	} {
		code, out, errs := run(c.name, append(strings.Fields(c.argv), "-trace="+c.format)...)
		if code != 0 {
			t.Errorf("%s %s -trace=%s: exit %d\n%s", c.name, c.argv, c.format, code, errs)
			continue
		}
		if err := oneExport(out, c.format); err != "" {
			t.Errorf("%s %s -trace=%s: %s:\n%s", c.name, c.argv, c.format, err, out)
		}
		if !strings.Contains(out, c.lane) {
			t.Errorf("%s %s -trace=%s: export lacks lane %q:\n%s", c.name, c.argv, c.format, c.lane, out)
		}
		for _, report := range []string{"result   =", "runtime  =", "legend:", "vs "} {
			if strings.Contains(out, report) {
				t.Errorf("%s %s -trace=%s: export carries report text %q:\n%s", c.name, c.argv, c.format, report, out)
			}
		}
	}
}

// oneExport checks that out is exactly one complete export in format
// (csv, json or html) and says what is wrong with it otherwise.
func oneExport(out, format string) string {
	switch format {
	case "csv":
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if lines[0] != "agent,state,from_ns,to_ns" || len(lines) < 2 {
			return "not a segment CSV"
		}
		for _, l := range lines[1:] {
			if strings.Count(l, ",") != 3 {
				return "CSV row " + strconv.Quote(l) + " has not 4 fields"
			}
		}
	case "json":
		var doc struct {
			EndNS  int64 `json:"end_ns"`
			Agents []struct {
				Name     string `json:"name"`
				Segments []any  `json:"segments"`
			} `json:"agents"`
		}
		dec := json.NewDecoder(strings.NewReader(out))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil || dec.More() || doc.EndNS <= 0 || len(doc.Agents) == 0 {
			return fmt.Sprintf("not one JSON timeline (%v)", err)
		}
	case "html":
		if !strings.HasPrefix(out, "<!DOCTYPE html>") || strings.Count(out, "<html") != 1 ||
			!strings.HasSuffix(strings.TrimSpace(out), "</html>") {
			return "not one HTML page"
		}
	default:
		return "unknown format " + format
	}
	return ""
}

// TestBadCommandLinesExit2 fail fast, before a run starts, and say why.
func TestBadCommandLinesExit2(t *testing.T) {
	for _, c := range []struct{ name, argv, says string }{
		{"sumeuler", "-runtime bogus", "unknown -runtime"},
		{"sumeuler", "-rts bogus", "-rts bogus: sumeuler has no simulated GpH bogus form"},
		{"sumeuler", "-rts gum -pes 3", "-rts gum: sumeuler has no simulated GpH gum form"},
		{"matmul", "-n 24 -block 7", "block=7 does not divide n=24"},
		{"matmul", "-n 24 -q 5 -runtime eden", "q=5 does not divide n=24"},
		{"matmul", "-n 24 -q 5 -runtime eden -cluster 2", "q=5 does not divide n=24"},
		{"matmul", "-n 0", "n=0 out of range"},
		{"sumeuler", "-n -5", "invalid value"},
		{"sumeuler", "-cluster 2", "-cluster requires -runtime eden"},
		{"sumeuler", "-runtime eden -cluster 2 -transport pigeon", "unknown transport"},
		{"sumeuler", "-restarts 1", "-restarts needs -cluster"},
		{"sumeuler", "-faults seed=1", "-faults/-deadline apply only"},
		{"sumeuler", "-runtime native -faults banana", "faults"},
		{"sumeuler", "-runtime native -workers 2 -n 300 -faults seed=1,panic-proc=0", "panic-proc never fires on the native backend"},
		{"sumeuler", "-runtime eden -pes 2 -faults seed=1,kill-rank=0:1ms", "kill-rank never fires on the eden backend"},
		{"sumeuler", "-runtime eden -cluster 2 -faults seed=1,panic-spark=0", "panic-spark never fires on the cluster backend"},
		{"sumeuler", "-block 3", "flag provided but not defined"},
		{"sumeuler", "-trace=bogus", "invalid boolean value \"bogus\" for -trace: want csv, json or html"},
		{"sumeuler", "-runtime native -trace=json -stats json", "both replace the report"},
		{"", "-run nope", "unknown workload"},
		{"", "-run fuzz -runtime eden", "fuzz has no Eden form"},
		{"", "-run fuzz -rts eden", "fuzz has no Eden form"},
		{"", "-run parfib -runtime native", "parfib has no native GpH form"},
	} {
		code, out, errs := run(c.name, strings.Fields(c.argv)...)
		if code != 2 || !strings.Contains(errs, c.says) {
			t.Errorf("%s %s: exit %d, stderr %q, want exit 2 saying %q", c.name, c.argv, code, errs, c.says)
		}
		if _, err := Exec(c.name, strings.Fields(c.argv)); !errors.Is(err, ErrUsage) || !strings.Contains(err.Error(), c.says) {
			t.Errorf("%s %s: Exec returned %v, want an ErrUsage saying %q", c.name, c.argv, err, c.says)
		}
		if out != "" {
			t.Errorf("%s %s: a rejected command line printed a report:\n%s", c.name, c.argv, out)
		}
	}
}

// TestFailedRunsExit1: a run that fails prints the structured error,
// and with -trace the timeline up to the failure.
func TestFailedRunsExit1(t *testing.T) {
	// A watchdog deadline a hundredth of the job: the one native failure
	// that does not depend on which sparks the schedule converts.
	code, out, errs := run("sumeuler", strings.Fields("-n 6000 -runtime native -workers 2 -deadline 1ms -trace")...)
	if code != 1 || !strings.Contains(errs, "deadline") || !strings.Contains(out, "partial timeline of the failed run:") {
		t.Errorf("native deadline: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	code, out, errs = run("sumeuler", strings.Fields("-n 300 -runtime eden -pes 3 -faults seed=7,panic-proc=0 -deadline 10s")...)
	if code != 1 || out != "" || errs == "" {
		t.Errorf("eden panic-proc: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	// An export of a failed run is the partial timeline, titled with the
	// failure. panic-proc fires at a process index the program fixes, so
	// the run fails on any schedule.
	code, out, errs = run("sumeuler", strings.Fields("-n 300 -runtime eden -pes 3 -faults seed=1,panic-proc=0 -trace=html")...)
	if code != 1 || !strings.Contains(errs, "injected proc panic") || oneExport(out, "html") != "" ||
		!strings.Contains(out, "FAILED, partial timeline") || strings.Contains(out, "result   =") {
		t.Errorf("eden panic-proc -trace=html: exit %d\nstdout: %s\nstderr: %s", code, out, errs)
	}
	code, _, errs = run("sumeuler", strings.Fields("-runtime eden -cluster 3 -pes 2 -n 4000 -faults kill-rank=1:50ms -deadline 30s")...)
	if code != 1 || !strings.Contains(errs, "worker rank 1 died") {
		t.Errorf("cluster kill-rank: exit %d, stderr %q", code, errs)
	}
}

// TestStatsJSONSchemas: -stats json prints exactly the report struct
// each runtime publishes, and nothing else, under a pinned key set: a
// dropped or renamed field fails here even though it still decodes.
// Keys are JSON paths ("[]" marks an array's elements); a "?" suffix
// marks an omitempty key a run may or may not print.
func TestStatsJSONSchemas(t *testing.T) {
	const gc = "cycles pause_ns bytes_alloc shared?"
	const edenReport = "pes wall_ns total total.messages total.bytes_sent total.processes total.threads_created " +
		"per_pe per_pe[].msgs_sent per_pe[].msgs_recv per_pe[].bytes_sent per_pe[].bytes_recv per_pe[].threads " +
		"per_pe[].alloc_bytes per_pe[].resident_bytes per_pe[].arena_chunks per_pe[].arena_thunks"
	const nativeStats = "sparks_created sparks_dud sparks_converted sparks_fizzled sparks_leftover steals " +
		"steal_attempts dup_entries dup_results blocked_forces forks backoff_sleeps backoff_ns parks parked_ns"
	for _, c := range []struct {
		argv string
		into any
		keys string
	}{
		{"-n 300 -chunks 6 -runtime native -workers 2 -stats json", &native.Report{},
			"workers wall_ns events_logged? events_dropped? total per_worker gc " + keySet("total", nativeStats) + " " +
				keySet("per_worker[]", nativeStats) + " " + keySet("gc", "gogc arena_chunks arena_thunks "+gc)},
		{"-n 300 -runtime eden -pes 2 -stats json", &nativeeden.Report{},
			edenReport + " gc " + keySet("gc", gc)},
		{"-n 300 -runtime eden -cluster 2 -pes 1 -stats json", &cluster.Result{},
			"Value WallNS CoordNS Procs PerProc Restarts Attempts RecoveryNS Reconnects " +
				"DroppedFrames HeartbeatRTTNS GOMAXPROCS Timeline " +
				"Total Total.messages Total.bytes_sent Total.processes Total.threads_created " +
				"PerPE PerPE[].msgs_sent PerPE[].msgs_recv PerPE[].bytes_sent PerPE[].bytes_recv PerPE[].threads " +
				"PerPE[].alloc_bytes PerPE[].resident_bytes PerPE[].arena_chunks PerPE[].arena_thunks " +
				"GC Reports " + keySet("GC", gc) + " " + keySet("Reports[]", edenReport+" gc "+keySet("gc", gc))},
	} {
		code, out, errs := run("sumeuler", strings.Fields(c.argv)...)
		if code != 0 {
			t.Fatalf("sumeuler %s: exit %d: %s", c.argv, code, errs)
		}
		dec := json.NewDecoder(strings.NewReader(out))
		dec.DisallowUnknownFields()
		if err := dec.Decode(c.into); err != nil {
			t.Errorf("sumeuler %s: output is not a %T: %v\n%s", c.argv, c.into, err, out)
		}
		if dec.More() {
			t.Errorf("sumeuler %s: text after the JSON report:\n%s", c.argv, out)
		}
		var doc any
		if err := json.Unmarshal([]byte(out), &doc); err != nil {
			t.Fatalf("sumeuler %s: %v", c.argv, err)
		}
		got := map[string]bool{}
		jsonKeys(doc, "", got)
		for _, k := range strings.Fields(c.keys) {
			k, optional := strings.CutSuffix(k, "?")
			if !got[k] && !optional {
				t.Errorf("sumeuler %s: key %q missing from the report", c.argv, k)
			}
			delete(got, k)
		}
		for k := range got {
			t.Errorf("sumeuler %s: unpinned key %q in the report", c.argv, k)
		}
	}
}

// keySet prefixes each space-separated key in keys with parent.
func keySet(parent, keys string) string {
	fs := strings.Fields(keys)
	for i, k := range fs {
		fs[i] = parent + "." + k
	}
	return strings.Join(fs, " ")
}

// jsonKeys adds every object key path under v to into.
func jsonKeys(v any, path string, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			p := k
			if path != "" {
				p = path + "." + k
			}
			into[p] = true
			jsonKeys(x, p, into)
		}
	case []any:
		for _, x := range v {
			jsonKeys(x, path+"[]", into)
		}
	}
}

// TestOneInstanceOnEveryRuntime: the flags name one problem instance
// whatever runtime runs it, and the spec a cluster run sends its worker
// processes rebuilds exactly that instance, leaving nothing to the
// cluster's own defaults. (It used to differ: apsp -cluster ran the
// registry's graph constants, not the command line's.)
func TestOneInstanceOnEveryRuntime(t *testing.T) {
	for _, c := range []struct{ name, flags string }{
		{"apsp", "-n 24 -seed 9"},
		{"matmul", "-n 24 -q 2"},
		{"sumeuler", "-n 500"},
	} {
		var hashes []uint64
		for _, rt := range []string{"", "-runtime native", "-runtime eden -pes 2", "-runtime eden -cluster 3 -pes 1"} {
			r, code := parse(c.name, strings.Fields(c.flags+" "+rt), nil, os.Stderr)
			if r == nil {
				t.Fatalf("%s %s %s: exit %d", c.name, c.flags, rt, code)
			}
			hashes = append(hashes, r.inst.InputHash())
			if r.o.cluster == 0 {
				continue
			}
			spec := r.clusterConfig().Spec
			e, args, err := workloads.ParseSpec(spec)
			if err != nil {
				t.Fatalf("the driver sent a spec that does not parse: %q: %v", spec, err)
			}
			for _, p := range e.Params {
				if _, ok := args.Get(p.Name); !ok {
					t.Errorf("%q leaves %s to the cluster's defaults", spec, p.Name)
				}
			}
			remote, err := e.New(args)
			if err != nil {
				t.Fatal(err)
			}
			if got := remote.InputHash(); got != r.inst.InputHash() {
				t.Errorf("%s: the workers' instance %q hashes %#x, the coordinator's %#x", c.name, spec, got, r.inst.InputHash())
			}
			if _, _, err := cluster.BuildProgram(spec); err != nil {
				t.Errorf("the cluster rejects the driver's spec %q: %v", spec, err)
			}
		}
		for _, h := range hashes[1:] {
			if h != hashes[0] {
				t.Errorf("%s %s: input hashes differ across runtimes: %#x", c.name, c.flags, hashes)
				break
			}
		}
	}
}

// TestFlagSurface: every flag each command accepted before the one
// driver existed is still accepted, with the same default.
func TestFlagSurface(t *testing.T) {
	shared := map[string]string{
		"cores": "8", "pes": "", "trace": "", "width": "100", "runtime": `"sim"`, "workers": "",
		"stats": `"text"`, "faults": "", "deadline": "",
		"cluster": "", "transport": `"tcp"`, "restarts": "",
	}
	for _, c := range []struct {
		name, argv string
		own        map[string]string
	}{
		{"sumeuler", "", map[string]string{"n": "15000", "rts": `"steal"`, "chunks": "300", "eager": "", "profile": ""}},
		{"matmul", "", map[string]string{"n": "396", "block": "33", "q": "3", "rts": `"steal"`}},
		{"apsp", "", map[string]string{"n": "400", "ring": "", "rts": `"eden"`, "eager": "", "seed": "105"}},
		{"", "-run parfib", map[string]string{"run": `"parfib"`, "n": "30", "cutoff": "16", "rts": `"steal"`}},
		{"", "-run queens", map[string]string{"run": `"queens"`, "n": "12", "cutoff": "16"}},
		{"", "-run mandel", map[string]string{"run": `"mandel"`, "n": "256"}},
	} {
		code, _, usage := run(c.name, append(strings.Fields(c.argv), "-h")...)
		if code != 0 {
			t.Fatalf("%s %s -h: exit %d", c.name, c.argv, code)
		}
		check := func(flag, def string) {
			t.Helper()
			m := regexp.MustCompile(`(?m)^  -` + flag + `\b[^\n]*\n    \t([^\n]*)`).FindStringSubmatch(usage)
			if m == nil {
				t.Errorf("%s %s: no -%s flag", c.name, c.argv, flag)
				return
			}
			got := ""
			if d := regexp.MustCompile(`\(default (.*)\)$`).FindStringSubmatch(m[1]); d != nil {
				got = d[1]
			}
			if got != def {
				t.Errorf("%s %s: -%s defaults to %q, want %q", c.name, c.argv, flag, got, def)
			}
		}
		for flag, def := range c.own {
			check(flag, def)
		}
		if c.name != "" { // the old cmd/workloads was simulator-only
			for flag, def := range shared {
				check(flag, def)
			}
		}
	}
}
