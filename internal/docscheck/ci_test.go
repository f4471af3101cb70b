package docscheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsSelectTests: every |-alternative of a -run or -fuzz
// pattern on a go test line of ci.yml names at least one test, fuzz
// target, benchmark or example of the packages that line tests. A test
// renamed or deleted under a CI step's pattern would otherwise leave
// the step running less than its title says, and still green.
func TestCIRunPatternsSelectTests(t *testing.T) {
	const root = "../.."
	ci, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	s := &testScan{root: root, names: map[string][]string{}}
	findings, lines := s.findings(string(ci))
	if lines < 5 {
		t.Fatalf("found %d go test lines with a -run or -fuzz pattern in ci.yml; the scan is broken", lines)
	}
	for _, f := range findings {
		t.Error("ci.yml" + f)
	}

	// The scan itself: stale alternatives are found, and only those.
	const stale = "  go test -race -run 'APSP|GpHProgram' ./internal/native/\n" +
		"  go test -cpu 1,2,4 -run 'Mesh|Flap|ReconnectHelloClosedOnStop' ./internal/cluster/ | tee x\n" +
		"  go test -run '^$' -fuzz '^FuzzFrameRead$|^FuzzGone$' ./internal/cluster/\n" +
		"  go test -run TestServeFaultScopedToJob -v ./internal/serve/\n" +
		"  go test -run 'ClusterChaosSmall|FrameRead' ./internal/...\n"
	got, lines := s.findings(stale)
	want := []string{
		`:1: -run alternative "GpHProgram" selects nothing in ./internal/native/`,
		`:2: -run alternative "Flap" selects nothing in ./internal/cluster/`,
		`:2: -run alternative "ReconnectHelloClosedOnStop" selects nothing in ./internal/cluster/`,
		`:3: -fuzz alternative "^FuzzGone$" selects nothing in ./internal/cluster/`,
	}
	if lines != 5 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("scanning stale lines found %d lines and\n%s\nwant 5 lines and\n%s",
			lines, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// testScan resolves go test package patterns against the repo at root,
// caching the test function names each directory declares.
type testScan struct {
	root  string
	names map[string][]string // by directory
}

// findings returns, for each go test line of text (one line, or a
// shell line continued with trailing backslashes), every |-alternative
// of its -run and -fuzz patterns that no test function of its packages
// matches, and how many lines had a pattern. The pattern '^$' selects
// nothing on purpose and is exempt.
func (s *testScan) findings(text string) (bad []string, lines int) {
	var joined string
	first := 0 // the line a continued command starts on
	for i, line := range strings.Split(text, "\n") {
		if joined == "" {
			first = i + 1
		}
		if strings.HasSuffix(line, "\\") {
			joined += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line, joined = joined+line, ""
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var pats [][2]string // flag, pattern
		var pkgs []string
		words := strings.Fields(cmd)
	scan:
		for j := 0; j < len(words); j++ {
			w := strings.Trim(words[j], `'"`)
			switch {
			case words[j] == "|" || words[j] == "||" || words[j] == "&&" || words[j] == ";" || strings.HasPrefix(words[j], ">"):
				break scan
			case (w == "-run" || w == "-fuzz") && j+1 < len(words):
				pats = append(pats, [2]string{w, strings.Trim(words[j+1], `'"`)})
				j++
			case strings.HasPrefix(w, "-run=") || strings.HasPrefix(w, "-fuzz="):
				flag, p, _ := strings.Cut(w, "=")
				pats = append(pats, [2]string{flag, p})
			case strings.HasPrefix(w, "./"):
				pkgs = append(pkgs, w)
			}
		}
		if len(pats) == 0 {
			continue
		}
		lines++
		var names []string
		for _, pkg := range pkgs {
			names = append(names, s.testNames(pkg)...)
		}
		for _, p := range pats {
			for _, alt := range alternatives(p[1]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					bad = append(bad, fmt.Sprintf(":%d: %s alternative %q: %v", first, p[0], alt, err))
					continue
				}
				if !matchesAny(re, names) {
					bad = append(bad, fmt.Sprintf(":%d: %s alternative %q selects nothing in %s", first, p[0], alt, strings.Join(pkgs, " ")))
				}
			}
		}
	}
	return bad, lines
}

// alternatives splits a pattern's top-level element (the part before
// any subtest '/') at its top-level '|', leaving out '^$'.
func alternatives(pattern string) []string {
	var alts []string
	keep := func(alt string) {
		if alt != "^$" {
			alts = append(alts, alt)
		}
	}
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case depth == 0 && c == '/':
			keep(pattern[start:i])
			return alts
		case depth == 0 && c == '|':
			keep(pattern[start:i])
			start = i + 1
		}
	}
	keep(pattern[start:])
	return alts
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}

// testNames lists the Test, Fuzz, Benchmark and Example functions the
// _test.go files of a package pattern declare: "./dir/" is one
// directory, "./dir/..." every directory under it that go test would
// walk.
func (s *testScan) testNames(pkg string) []string {
	dir, recursive := strings.CutSuffix(pkg, "...")
	dir = filepath.Join(s.root, dir)
	if !recursive {
		return s.dirNames(dir)
	}
	var names []string
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if b := d.Name(); path != dir && (strings.HasPrefix(b, ".") || strings.HasPrefix(b, "_") || b == "testdata") {
			return filepath.SkipDir
		}
		names = append(names, s.dirNames(path)...)
		return nil
	})
	return names
}

func (s *testScan) dirNames(dir string) []string {
	if names, ok := s.names[dir]; ok {
		return names
	}
	var names []string
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
					break
				}
			}
		}
	}
	s.names[dir] = names
	return names
}
