package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// series is one metric's values over the runs of a set.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// suiteWorkload is one workload's share of a result set.
type suiteWorkload struct {
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]*series `json:"per_layer"`
	Flags     []string           `json:"flags,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
}

// suiteFile is a complete set of runs: what `compare` reads and what
// benchmark/baselines/ keeps per PR.
type suiteFile struct {
	Provenance provenance                `json:"provenance"`
	Seconds    float64                   `json:"seconds"`
	Runs       int                       `json:"runs"`
	Workloads  map[string]*suiteWorkload `json:"workloads"`
}

// runSuite runs every workload untraced (runs times, seeds seed, seed+1,
// …) and then traced, each run in a fresh child process of this binary:
// no run inherits another's heap, memo tables or warmed-up runtime.
func runSuite(spec *benchSpec, seed uint64, seconds float64, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sf := &suiteFile{Provenance: newProvenance(seed), Seconds: seconds, Runs: runs,
		Workloads: map[string]*suiteWorkload{}}
	fmt.Printf("# suite: %d untraced + 1 traced run of %.0fs per workload\n# %s\n", runs, seconds, sf.Provenance)
	for _, w := range workloads {
		sw := &suiteWorkload{EndToEnd: map[string]*series{}, PerLayer: map[string]*series{}}
		sf.Workloads[w.name] = sw
		for r := 0; r <= runs; r++ {
			traced := r == runs
			s := seed + uint64(r)
			if traced {
				s = seed
			}
			rep, err := runChild(spec, exe, w.name, s, seconds, traced)
			if err != nil {
				return err
			}
			into := sw.EndToEnd
			if traced {
				into = sw.PerLayer
			} else {
				sw.Attempted += rep.Attempted
				sw.Failed += rep.Failed
			}
			for name, v := range rep.Metrics {
				if into[name] == nil {
					into[name] = &series{Unit: v.Unit}
				}
				into[name].Values = append(into[name].Values, v.Value)
			}
			sw.Flags = append(sw.Flags, rep.Flags...)
		}
	}
	if out == "" {
		out = filepath.Join(spec.outDir(), "suite.json")
	}
	if err := writeJSONFile(out, sf); err != nil {
		return err
	}
	fmt.Printf("# result set: %s\n", out)
	for _, w := range workloads {
		if sw := sf.Workloads[w.name]; sw.Failed > 0 {
			return fmt.Errorf("%s: %d of %d jobs failed", w.name, sw.Failed, sw.Attempted)
		}
	}
	return nil
}

// runChild runs one workload once in a child process, echoes what it
// prints, and reads back the report it wrote.
func runChild(spec *benchSpec, exe, workload string, seed uint64, seconds float64, traced bool) (*report, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	cmd.Dir = spec.root
	cmd.Stderr = os.Stderr
	cmd.Stdout = os.Stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %s): %w", workload, seed, t, err)
	}
	rep := &report{Workload: workload, Traced: traced}
	b, err := os.ReadFile(filepath.Join(spec.outDir(), rep.fileName()))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: report: %w", workload, err)
	}
	return rep, nil
}

// compareMain prints, per workload and end-to-end metric, both medians,
// their ratio with its base, the bound and a verdict:
//
//	ok          B is not worse than A by more than the bound
//	worse       it is, and the runs are steady enough to say so
//	unresolved  the run-to-run spread of a side is wider than the bound
//
// A workload whose reference phase (plain Go, no runtime) moved by more
// than 10% between the sets is marked noisy: the machine changed, not
// the code; re-run rather than pass. Exit status: 1 on any worse, 3 on
// noisy alone, 0 otherwise.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var sets [2]suiteFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
		fmt.Printf("# %c: %s\n#    %s, %d runs of %.0fs\n", 'A'+i, path, sets[i].Provenance, sets[i].Runs, sets[i].Seconds)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tB/A\tA spread\tB spread\tbound\tverdict")
	worse, noisy := 0, 0
	for _, w := range spec.Workloads {
		a, b := sets[0].Workloads[w.Name], sets[1].Workloads[w.Name]
		if a == nil || b == nil {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\t\t\tmissing from a set\n", w.Name)
			worse++
			continue
		}
		note := ""
		if ra, rb := a.PerLayer["workloads.ref_s_p50"], b.PerLayer["workloads.ref_s_p50"]; ra != nil && rb != nil {
			if ma, mb := median(ra.Values), median(rb.Values); ma > 0 && (mb/ma > 1.10 || ma/mb > 1.10) {
				note = fmt.Sprintf(" noisy(ref %.4g -> %.4g)", ma, mb)
				noisy++
			}
		}
		for _, m := range spec.EndToEnd {
			sa, sb := a.EndToEnd[m.Name], b.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\tmissing from a set\n", w.Name, m.Name)
				worse++
				continue
			}
			v := verdict(sa.Values, sb.Values, m)
			if v == "worse" {
				worse++
			}
			ma, mb := median(sa.Values), median(sb.Values)
			fmt.Fprintf(tw, "%s\t%s\t%.5g %s\t%.5g %s\t%.3f (base %.5g)\t%.1f%%\t%.1f%%\t%.0f%%\t%s%s\n",
				w.Name, m.Name, ma, m.Unit, mb, m.Unit, ratio(mb, ma), ma,
				100*spread(sa.Values), 100*spread(sb.Values), 100*m.Bound, v, note)
		}
	}
	tw.Flush()
	switch {
	case worse > 0:
		fmt.Printf("# %d worse\n", worse)
		return 1
	case noisy > 0:
		fmt.Printf("# no metric worse, but %d workloads noisy: re-run, do not pass\n", noisy)
		return 3
	}
	fmt.Println("# no metric worse")
	return 0
}

// verdict applies the regression rule to one metric on one workload.
func verdict(a, b []float64, m metricSpec) string {
	ma, mb := median(a), median(b)
	sign := 1.0 // lower is better: B worse when larger
	if m.Better == "higher" {
		sign = -1
	}
	regress := sign * (mb - ma) / ma
	steady := spread(a) <= m.Bound && spread(b) <= m.Bound
	// every run of B on one side of every run of A settles it whatever the spread
	allWorse := sign*(quantile(b, 0)-quantile(a, 1)) > 0 && sign*(quantile(b, 1)-quantile(a, 0)) > 0
	allBetter := sign*(quantile(b, 0)-quantile(a, 1)) < 0 && sign*(quantile(b, 1)-quantile(a, 0)) < 0
	switch {
	case regress > m.Bound && (steady || allWorse):
		return "worse"
	case steady || (allBetter && regress <= m.Bound):
		return "ok"
	}
	return "unresolved"
}
