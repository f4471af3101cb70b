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
	"cluster": {"panic-proc", "drop", "delay", "stall", "kill-rank", "sever-rank", "flap-rank", "wedge-rank", "rank-faults"},
}

// CLIInjector builds an injector from a command's -faults/-deadline
// flag pair, validating fail-fast before any run starts: a non-empty
// spec must parse and name only clauses the backend ("native", "eden"
// or "cluster") fires, the deadline must not be negative, and both
// flags apply only to those backends. Both flags at their defaults
// yield a nil injector (faults disabled).
func CLIInjector(spec string, deadline time.Duration, backend string) (*Injector, error) {
	if spec == "" && deadline == 0 {
		return nil, nil
	}
	kinds, ok := fires[backend]
	if !ok {
		return nil, fmt.Errorf("faults: -faults/-deadline apply only to -runtime native or eden (got %q)", backend)
	}
	if deadline < 0 {
		return nil, fmt.Errorf("faults: -deadline must not be negative (got %v)", deadline)
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
	return NewInjector(plan), nil
}
