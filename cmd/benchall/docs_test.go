package main

import (
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents that describe how to run things. CHANGES.md, ROADMAP.md
// and ISSUE.md are history: they may name what no longer exists.
var docs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"results/README.md",
	".claude/skills/verify/SKILL.md",
	".github/workflows/ci.yml",
}

var (
	// A benchall command runs from the word to the end of its code span,
	// pipeline stage or trailing comment.
	benchallCmdRE = regexp.MustCompile("benchall([^`|;#)·]*)")
	flagRE        = regexp.MustCompile(`\s-([a-z][a-z0-9]*)`)
	resultsFileRE = regexp.MustCompile(`\bresults/([A-Za-z0-9_][A-Za-z0-9_.*-]*)`)
	testNameRE    = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z][A-Za-z0-9_]*`)
	testFuncRE    = regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)[A-Za-z0-9_]*)\(`)
)

// checkDoc returns what text points at that is not there: benchall
// flags newFlags does not register, results/ files that do not exist
// under root, and Test/Benchmark/Fuzz names that are neither a function
// in funcs nor the prefix of one.
func checkDoc(text string, flags map[string]bool, funcs []string, root string) []string {
	var bad []string
	// A trailing backslash continues a shell command on the next line.
	text = strings.ReplaceAll(text, "\\\n", " ")
	for _, line := range strings.Split(text, "\n") {
		for _, cmd := range benchallCmdRE.FindAllStringSubmatch(line, -1) {
			for _, f := range flagRE.FindAllStringSubmatch(cmd[1], -1) {
				if !flags[f[1]] {
					bad = append(bad, "benchall has no flag -"+f[1]+": "+strings.TrimSpace(line))
				}
			}
		}
	}
	for _, m := range resultsFileRE.FindAllStringSubmatch(text, -1) {
		name := strings.TrimRight(m[1], ".")
		if _, err := os.Stat(filepath.Join(root, "results", name)); err != nil {
			bad = append(bad, "no such file: results/"+name)
		}
	}
names:
	for _, name := range testNameRE.FindAllString(text, -1) {
		for _, fn := range funcs {
			if strings.HasPrefix(fn, name) {
				continue names
			}
		}
		bad = append(bad, "no test, benchmark or fuzz function named "+name+"…")
	}
	return bad
}

// TestDocsPointAtWhatExists walks the documents and fails on every
// benchall flag, results/ file and test name that was deleted or
// renamed out from under them.
func TestDocsPointAtWhatExists(t *testing.T) {
	const root = "../.."
	flags := map[string]bool{}
	fset := flag.NewFlagSet("benchall", flag.ContinueOnError)
	newFlags(fset)
	fset.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })

	var funcs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range checkDoc(string(text), flags, funcs, root) {
			t.Errorf("%s: %s", doc, b)
		}
	}

	// The checker must catch each kind of stale pointer, and pass a
	// line that is fine.
	for line, want := range map[string]int{
		"go run ./cmd/benchall -native    # sweep":                                                                     1,
		"recorded in `results/NO_SUCH_FILE.json` under `hot_path`":                                                     1,
		"`BenchmarkNativeFaultOverhead` holds the bar":                                                                 1,
		"go run ./cmd/benchall -quick -cluster -chaos 8 \\\n  -restarts 2 | tee -a results/CHAOS.json # TestDocsPoint": 0,
	} {
		if got := checkDoc(line, flags, funcs, root); len(got) != want {
			t.Errorf("checkDoc(%q) = %q, want %d findings", line, got, want)
		}
	}
}

// TestUsageErrorsBeforeAnyWork: a bad -fig and a -cluster without its
// -chaos N are usage errors found by validate, which runs before the
// first figure does.
func TestUsageErrorsBeforeAnyWork(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "9", "-models", "-latency"},
		{"-fig", "-1"},
		{"-quick", "-cluster"},
		{"-quick", "-cluster", "-chaos", "2", "-transport", "pigeon"},
	} {
		fset := flag.NewFlagSet("benchall", flag.ContinueOnError)
		o := newFlags(fset)
		if err := fset.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.validate(); err == nil {
			t.Errorf("benchall %v: no usage error", args)
		}
	}
}
