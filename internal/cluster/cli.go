package cluster

import (
	"fmt"
	"strings"
	"time"

	"parhask/internal/trace"
)

// CheckFlags is the shared fail-fast validation of the -cluster,
// -transport and -restarts CLI flags. procs == 0 means cluster mode is
// off (the default) and then only -restarts is checked (it needs a
// cluster to mean anything); otherwise the run must be on the native
// Eden runtime (the simulated runtimes have no processes to
// distribute, and the work-stealing native runtime has one shared
// heap), the process count must be positive, and the transport must be
// one Run knows. Returning an error before anything launches is the
// point: a bad flag must not cost a cluster spin-up.
func CheckFlags(rtKind string, procs int, transport string, restarts int) error {
	if restarts < 0 {
		return fmt.Errorf("-restarts %d: the restart budget must be non-negative", restarts)
	}
	if procs == 0 {
		if restarts > 0 {
			return fmt.Errorf("-restarts needs -cluster: only cluster runs have worker processes to respawn")
		}
		return nil
	}
	if procs < 0 {
		return fmt.Errorf("-cluster %d: the worker-process count must be at least 1", procs)
	}
	if rtKind != "eden" {
		return fmt.Errorf("-cluster requires -runtime eden (got -runtime %s)", rtKind)
	}
	if transport != "tcp" && transport != "unix" {
		return fmt.Errorf("-transport %s: unknown transport (want tcp or unix)", transport)
	}
	return nil
}

// RecoverySummary renders the run's recovery for the CLIs — restarts
// with their attempt history and the recovery latency. Empty when the
// run needed none, so callers can print it unconditionally.
func (r *Result) RecoverySummary() string {
	if r.Restarts == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "recovery = %d restarts", r.Restarts)
	if r.RecoveryNS > 0 {
		fmt.Fprintf(&sb, ", recovered in %v", time.Duration(r.RecoveryNS).Round(time.Millisecond))
	}
	sb.WriteByte('\n')
	for _, a := range r.Attempts {
		fmt.Fprintf(&sb, "  attempt %d: rank %d died (%s) after %v, backed off %v\n",
			a.Attempt, a.Rank, a.Reason,
			time.Duration(a.WallNS).Round(time.Millisecond),
			time.Duration(a.BackoffNS).Round(time.Millisecond))
	}
	return sb.String()
}

// TraceLog converts the merged cluster timeline back into a renderable
// wall-clock trace, one lane per global PE. Nil if the run did not
// record events.
func (r *Result) TraceLog() (*trace.Log, error) {
	if r.Timeline == nil {
		return nil, nil
	}
	lg, err := r.Timeline.Log()
	if err != nil {
		return nil, err
	}
	return lg.TraceAgents(r.Timeline.Agents), nil
}
