// Package docscheck holds what the repo's documentation tests share:
// the documents that describe how to run things, and the check that a
// command line in them passes only flags its command registers. Only
// _test.go files import it.
package docscheck

import (
	"regexp"
	"strings"
)

// Docs are the documents that describe how to run things, relative to
// the repo root. CHANGES.md and ROADMAP.md are history: they may name
// what no longer exists.
var Docs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"results/README.md",
	".claude/skills/verify/SKILL.md",
	".github/workflows/ci.yml",
}

// Flag is one flag on a command line: a space, a dash, a lower-case name.
var Flag = regexp.MustCompile(`\s-([a-z][a-z0-9]*)`)

// UnknownFlags returns a finding for every flag of a cmd command line in
// text that flags lacks. cmdRE matches one command line and captures
// what follows the command's name; a trailing backslash continues a
// shell command on the next line.
func UnknownFlags(text, cmd string, cmdRE *regexp.Regexp, flags map[string]bool) []string {
	var bad []string
	text = strings.ReplaceAll(text, "\\\n", " ")
	for _, line := range strings.Split(text, "\n") {
		for _, m := range cmdRE.FindAllStringSubmatch(line, -1) {
			for _, f := range Flag.FindAllStringSubmatch(m[1], -1) {
				if !flags[f[1]] {
					bad = append(bad, cmd+" has no flag -"+f[1]+": "+strings.TrimSpace(line))
				}
			}
		}
	}
	return bad
}
