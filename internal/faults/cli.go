package faults

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// fires lists, per backend, the spec clauses its code reads; any other
// clause would parse and never fire. native calls SparkFault and
// StallDur as a worker converts a spark (internal/native); eden calls
// ProcFault and StallDur as a process starts and MessageFate and
// StallDur as it sends (internal/nativeeden); a cluster worker runs
// eden and reads the rank clauses itself (internal/cluster). seed is
// read everywhere.
var fires = map[string][]string{
	"native":  {"panic-spark", "stall"},
	"eden":    {"panic-proc", "drop", "delay", "stall"},
	"cluster": {"panic-proc", "drop", "delay", "stall", "kill-rank", "sever-rank", "wedge-rank", "rank-faults"},
}

// CLIInjector builds an injector from a command's -faults/-deadline
// flag pair, validating fail-fast before any run starts: a non-empty
// spec must pass ParseFor, the deadline must not be negative, and both
// flags apply only to the backends ParseFor knows. Both flags at their
// defaults yield a nil injector (faults disabled).
func CLIInjector(spec string, deadline time.Duration, backend string) (*Injector, error) {
	if spec == "" && deadline == 0 {
		return nil, nil
	}
	if _, ok := fires[backend]; !ok {
		return nil, fmt.Errorf("faults: -faults/-deadline apply only to -runtime native or eden (got %q)", backend)
	}
	if deadline < 0 {
		return nil, fmt.Errorf("faults: -deadline must not be negative (got %v)", deadline)
	}
	plan, err := ParseFor(spec, backend)
	if plan == nil {
		return nil, err
	}
	return NewInjector(plan), nil
}

// ParseFor parses spec and refuses a clause the backend ("native",
// "eden" or "cluster") never fires, so that a plan it admits tests
// what it names. An empty spec yields a nil plan and no error.
func ParseFor(spec, backend string) (*Plan, error) {
	kinds, ok := fires[backend]
	if !ok {
		return nil, fmt.Errorf("faults: unknown backend %q", backend)
	}
	plan, err := Parse(spec)
	if plan == nil {
		return nil, err
	}
	for _, clause := range strings.Split(spec, ",") {
		key, _, _ := strings.Cut(strings.TrimSpace(clause), "=")
		if key != "" && key != "seed" && !slices.Contains(kinds, key) {
			return nil, fmt.Errorf("faults: %s never fires on the %s backend (it fires %s)", key, backend, strings.Join(kinds, ", "))
		}
	}
	return plan, nil
}
