package driver

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
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
		{"sumeuler", "-n 300 -rts gum -pes 3", []string{"on GUM (distributed GpH), 3 PEs / 8 cores"}},
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
		{"apsp", "-n 12 -runtime native -workers 2 -eager -backoff spin=64,min=10us,max=640us,park=8", []string{"result   = verified against Floyd"}},
		{"apsp", "-n 12 -runtime eden -pes 2 -ring 3", []string{"on native Eden, 2 PEs", "ring=3"}},
		{"apsp", "-n 12 -runtime eden -cluster 3 -pes 1 -transport unix -deadline 60s",
			[]string{"result   = verified against Floyd", "3-process Eden cluster (unix)", "ring=3"}},
		{"", "-run parfib -n 14 -cutoff 8", []string{"parfib 14 on GpH (steal", "verified against iterative Fibonacci (377)"}},
		{"", "-run queens -n 6 -rts eden", []string{"queens 6 on Eden, 8 PEs / 8 cores", "(4)"}},
		{"", "-run=mandel -n 16 -rts gum", []string{"mandel 16 px wide on GUM", "height=0"}},
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

func TestTraceRendersTimelines(t *testing.T) {
	for _, c := range []struct{ name, argv, lane string }{
		{"sumeuler", "-n 300 -trace -width 60", "cap7"},
		{"sumeuler", "-n 300 -runtime native -workers 2 -trace", "legend:"},
		{"apsp", "-n 12 -runtime eden -pes 2 -trace", "pe1"},
		{"sumeuler", "-n 300 -runtime eden -cluster 3 -pes 2 -trace -width 120 -deadline 60s", "pe5"},
	} {
		code, out, errs := run(c.name, strings.Fields(c.argv)...)
		if code != 0 || !strings.Contains(out, c.lane) || !strings.Contains(out, "legend:") {
			t.Errorf("%s %s: exit %d, want a timeline with lane %q:\n%s%s", c.name, c.argv, code, c.lane, out, errs)
		}
	}
}

// TestBadCommandLinesExit2 fail fast, before a run starts, and say why.
func TestBadCommandLinesExit2(t *testing.T) {
	for _, c := range []struct{ name, argv, says string }{
		{"sumeuler", "-runtime bogus", "unknown -runtime"},
		{"sumeuler", "-rts bogus", "-rts bogus: sumeuler has no simulated GpH bogus form"},
		{"sumeuler", "-backoff park=8 -rts steal", "-backoff requires -runtime native"},
		{"matmul", "-runtime native -backoff spin=banana", "-backoff:"},
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
		{"sumeuler", "-block 3", "flag provided but not defined"},
		{"", "-run nope", "unknown workload"},
		{"", "-run fuzz -runtime eden", "fuzz has no Eden form"},
		{"", "-run fuzz -rts eden", "fuzz has no Eden form"},
		{"", "-run parfib -runtime native", "parfib has no native GpH form"},
	} {
		code, out, errs := run(c.name, strings.Fields(c.argv)...)
		if code != 2 || !strings.Contains(errs, c.says) {
			t.Errorf("%s %s: exit %d, stderr %q, want exit 2 saying %q", c.name, c.argv, code, errs, c.says)
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
	code, _, errs = run("sumeuler", strings.Fields("-runtime eden -cluster 3 -pes 2 -n 4000 -faults kill-rank=1:50ms -deadline 30s")...)
	if code != 1 || !strings.Contains(errs, "worker rank 1 died") {
		t.Errorf("cluster kill-rank: exit %d, stderr %q", code, errs)
	}
}

// TestStatsJSONSchemas: -stats json prints exactly the report struct
// each runtime publishes, and nothing else.
func TestStatsJSONSchemas(t *testing.T) {
	for _, c := range []struct {
		argv string
		into any
	}{
		{"-n 300 -chunks 6 -runtime native -workers 2 -stats json", &native.Report{}},
		{"-n 300 -runtime eden -pes 2 -stats json", &nativeeden.Report{}},
		{"-n 300 -runtime eden -cluster 2 -pes 1 -stats json", &cluster.Result{}},
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
		"stats": `"text"`, "faults": "", "deadline": "", "backoff": "",
		"cluster": "", "transport": `"tcp"`, "restarts": "", "reconnect": "true",
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
