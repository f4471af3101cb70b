package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"parhask/internal/docscheck"
)

// A tracedump command runs from the word to the end of its code span,
// pipeline stage, redirect or trailing comment.
var tracedumpCmdRE = regexp.MustCompile("tracedump([^`|;#)·>]*)")

func registered() (*options, *flag.FlagSet, map[string]bool) {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	o := newFlags(fs)
	flags := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })
	return o, fs, flags
}

// TestFlags: tracedump renders the simulated figures and served jobs'
// traces, nothing else; a native run's timeline is the workload
// command's -trace.
func TestFlags(t *testing.T) {
	_, _, flags := registered()
	var got []string
	for f := range flags {
		got = append(got, f)
	}
	slices.Sort(got)
	if want := []string{"experiment", "format", "job", "quick", "server", "width"}; !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

// TestDocsUseRegisteredFlags fails on every tracedump command line in
// the documents that passes a flag newFlags does not register.
func TestDocsUseRegisteredFlags(t *testing.T) {
	const root = "../.."
	_, _, flags := registered()
	for _, doc := range docscheck.Docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range docscheck.UnknownFlags(string(text), "tracedump", tracedumpCmdRE, flags) {
			t.Errorf("%s: %s", doc, b)
		}
	}

	// The checker must catch a removed flag, and pass lines that are fine.
	for line, want := range map[string]int{
		"go run ./cmd/tracedump -quick -native sumeuler -workers 4 -format html > t.html": 2,
		"`tracedump -experiment matmul -format csv` (the segments), `sumeuler -trace`":    0,
		"tracedump -job t-17 -server http://localhost:8080 | head -30 -x":                 0,
	} {
		if got := docscheck.UnknownFlags(line, "tracedump", tracedumpCmdRE, flags); len(got) != want {
			t.Errorf("UnknownFlags(%q) = %q, want %d findings", line, got, want)
		}
	}
}

// TestUsageErrorsBeforeAnyWork: a bad -format or -experiment is found
// by validate, which runs before the first figure does.
func TestUsageErrorsBeforeAnyWork(t *testing.T) {
	for argv, bad := range map[string]bool{
		"-format bogus":                      true,
		"-experiment fig9":                   true,
		"-experiment matmul -format bogus":   true,
		"-job t-1 -format pdf":               true,
		"-experiment matmul -format html":    false,
		"-quick -width 60":                   false,
		"-job t-1 -experiment x -format csv": false,
	} {
		o, fs, _ := registered()
		if err := fs.Parse(strings.Fields(argv)); err != nil {
			t.Fatal(err)
		}
		if err := o.validate(); (err != nil) != bad {
			t.Errorf("tracedump %s: validate() = %v, want an error: %v", argv, err, bad)
		}
	}
}
