package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"parhask/internal/docscheck"
)

var (
	// A benchall command runs from the word to the end of its code span,
	// pipeline stage or trailing comment.
	benchallCmdRE = regexp.MustCompile("benchall([^`|;#)·]*)")
	resultsFileRE = regexp.MustCompile(`\bresults/([A-Za-z0-9_][A-Za-z0-9_.*-]*)`)
	testNameRE    = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z][A-Za-z0-9_]*`)
	testFuncRE    = regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)[A-Za-z0-9_]*)\(`)
	// A back-ticked repo path runs to the first space or the closing tick.
	repoPathRE = regexp.MustCompile("`((?:internal|cmd|examples|benchmark)/[^`\\s]*)")
	braceRE    = regexp.MustCompile(`\{([^{}]*)\}`)
	codeSpanRE = regexp.MustCompile("`([^`\n]+)`")
	// A qualified identifier starts a selector chain: a lower-case
	// package name that is not itself inside a path or a selector, then
	// the first identifier after it. Two things have the same shape and
	// are not identifiers: a file name like wire.go, and a benchmark
	// metric like native.spark_ns (lower case with an underscore).
	qualIdentRE = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)`)
	metricRE    = regexp.MustCompile(`^[a-z0-9]*_[a-z0-9_]*$`)
	fileExts    = map[string]bool{"go": true, "s": true, "md": true, "json": true, "txt": true, "html": true, "yml": true}
	// runReports are the results/ files the in-process chaos soak writes
	// where it runs. They are not committed: CI's chaos job writes them,
	// replays a row from one and uploads both.
	runReports = map[string]bool{"CHAOS.html": true, "CHAOS.json": true}
)

// checkDoc returns what text points at that is not there: benchall
// flags newFlags does not register, results/ files (but the soak's
// runReports) and back-ticked repo paths that do not exist under root,
// Test/Benchmark/Fuzz names that are neither a function in funcs nor
// the prefix of one, and
// back-ticked pkg.Name identifiers whose repo package pkg has no
// top-level declaration Name (decls maps package name to its
// declarations; names of packages outside the repo are not checked).
func checkDoc(text string, flags map[string]bool, funcs []string, decls map[string]map[string]bool, root string) []string {
	bad := docscheck.UnknownFlags(text, "benchall", benchallCmdRE, flags)
	text = strings.ReplaceAll(text, "\\\n", " ")
	for _, m := range resultsFileRE.FindAllStringSubmatch(text, -1) {
		name := strings.TrimRight(m[1], ".")
		if _, err := os.Stat(filepath.Join(root, "results", name)); err != nil && !runReports[name] {
			bad = append(bad, "no such file: results/"+name)
		}
	}
	for _, m := range repoPathRE.FindAllStringSubmatch(text, -1) {
		if !repoPathExists(root, m[1]) {
			bad = append(bad, "no such path: "+m[1])
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
	for _, span := range codeSpanRE.FindAllStringSubmatch(text, -1) {
		for _, m := range qualIdentRE.FindAllStringSubmatch(span[1], -1) {
			pkg, name := m[1], m[2]
			if names, ok := decls[pkg]; ok && !fileExts[name] && !metricRE.MatchString(name) && !names[name] {
				bad = append(bad, "package "+pkg+" declares no "+name)
			}
		}
	}
	return bad
}

// topLevelDecls adds the top-level names the Go file at path declares
// (types, funcs, vars, consts; not methods) to decls under its package
// name. Package main is skipped: no doc names an identifier in it.
func topLevelDecls(decls map[string]map[string]bool, path string) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil || f.Name.Name == "main" {
		return err
	}
	names := decls[f.Name.Name]
	if names == nil {
		names = map[string]bool{}
		decls[f.Name.Name] = names
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					names[spec.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return nil
}

// repoPathExists reports whether a doc's repo path names something
// under root: a `:line` suffix is dropped, each {a,b} alternative must
// exist, `*` globs, and a trailing /** asks only for the directory.
func repoPathExists(root, path string) bool {
	path, _, _ = strings.Cut(path, ":")
	if m := braceRE.FindStringSubmatchIndex(path); m != nil {
		for _, alt := range strings.Split(path[m[2]:m[3]], ",") {
			if !repoPathExists(root, path[:m[0]]+alt+path[m[1]:]) {
				return false
			}
		}
		return true
	}
	if dir, ok := strings.CutSuffix(path, "/**"); ok {
		st, err := os.Stat(filepath.Join(root, dir))
		return err == nil && st.IsDir()
	}
	hits, err := filepath.Glob(filepath.Join(root, path))
	return err == nil && len(hits) > 0
}

// TestDocsPointAtWhatExists walks the documents and fails on every
// benchall flag, results/ file, repo path and test name that was
// deleted or renamed out from under them.
func TestDocsPointAtWhatExists(t *testing.T) {
	const root = "../.."
	flags := map[string]bool{}
	fset := flag.NewFlagSet("benchall", flag.ContinueOnError)
	newFlags(fset)
	fset.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })

	var funcs []string
	decls := map[string]map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		if !strings.HasSuffix(path, "_test.go") {
			return topLevelDecls(decls, path)
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

	for _, doc := range docscheck.Docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range checkDoc(string(text), flags, funcs, decls, root) {
			t.Errorf("%s: %s", doc, b)
		}
	}

	// The checker must catch each kind of stale pointer, and pass a
	// line that is fine.
	for line, want := range map[string]int{
		"go run ./cmd/benchall -native    # sweep":                                                                     1,
		"recorded in `results/NO_SUCH_FILE.json` under `hot_path`":                                                     1,
		"`BenchmarkNativeFaultOverhead` holds the bar":                                                                 1,
		"the message layer is `internal/eden/msg*.go`":                                                                 1,
		"`internal/workloads/{apsp,nope}` and `examples/nope/**`":                                                      2,
		"`internal/driver/driver.go:454`, `internal/workloads/{apsp,fuzz}`, `benchmark/**`, `cmd/workloads -run …`":    0,
		"go run ./cmd/benchall -quick -cluster -chaos 8 \\\n  -chaosseed 7 | tee results/CHAOS_cluster.json # TestDoc": 0,
		"go run ./cmd/benchall -quick -cluster -chaos 8 -restarts 2 -transport tcp":                                    2,
		"the farm is `skel.SupervisedMW`, the window `strategies.ParBuffer`":                                           2,
		"`eventlog.WorkerDead` marks a death, `nativeeden.idleSleep` waits":                                            2,
		"`nativeeden.PCtx.runThread`, `(*rts.Ctx).NoSuchMethod`, `faults.Latch`, `http.Client`, `wire.go`":             0,
		"`native.spark_ns` from `go run ./benchmark`, `nativeeden.ClusterSpec`":                                        0,
	} {
		if got := checkDoc(line, flags, funcs, decls, root); len(got) != want {
			t.Errorf("checkDoc(%q) = %q, want %d findings", line, got, want)
		}
	}
}

// TestUsageErrorsBeforeAnyWork: a bad -fig, a negative -chaos and a
// -cluster without its -chaos N are usage errors found by validate,
// which runs before the first figure or soak does.
func TestUsageErrorsBeforeAnyWork(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "9", "-models", "-latency"},
		{"-fig", "-1"},
		{"-quick", "-cluster"},
		{"-quick", "-chaos", "-1"},
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
