package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"parhask/internal/cluster"
	"parhask/internal/driver"
	"parhask/internal/faults"
)

// Cluster chaos outcome classes. "ok" — the fault never bit (or was
// absorbed invisibly); "recovered" — a rank died, wedged or lost its
// link and the supervisor's restart healed the run into an
// oracle-equal result; "structured" —
// the run failed, but with a typed, diagnosable error (the expected
// outcome when the fault outruns the restart budget); "violation" —
// a wrong result, an unstructured failure, or a hang.
const (
	ClusterChaosRecovered = "recovered"
)

// ClusterChaosRow is one supervised cluster run under an injected
// rank-level fault.
type ClusterChaosRow struct {
	Iter int `json:"iter"`
	// Mode is the fault class this iteration injected:
	// kill | sever | wedge.
	Mode    string   `json:"mode"`
	Spec    string   `json:"spec"`
	Args    []string `json:"args"` // the cmd/sumeuler command line that ran it
	Outcome string   `json:"outcome"`
	Detail  string   `json:"detail,omitempty"`
	// Recovery telemetry: full-run restarts, the attempt history, and
	// the recovery latency (first failure to recovered result) when a
	// restart happened.
	Restarts   int               `json:"restarts,omitempty"`
	Attempts   []cluster.Attempt `json:"attempts,omitempty"`
	RecoveryNS int64             `json:"recovery_ns,omitempty"`
	WallNS     int64             `json:"wall_ns"`
}

// Repro is the command line that ran this iteration.
func (r ClusterChaosRow) Repro() string { return repro(r.Args) }

// ClusterChaos is the chaos-under-cluster soak report: iters supervised
// 3-process sumEuler runs, each with one rank killed, severed or
// wedged at a seed-derived moment, under a restart budget.
// The invariant mirrors the in-process soak's, with recovery added:
// every iteration ends in an oracle-equal result (clean or recovered)
// or a structured failure; wrong results, unstructured errors and
// hangs are violations.
type ClusterChaos struct {
	Iterations int    `json:"iterations"`
	Seed       uint64 `json:"seed"`
	Transport  string `json:"transport"`
	Budget     int    `json:"budget"` // restarts allowed per run
	N          int    `json:"sumeuler_n"`
	OK         int    `json:"ok"`
	Recovered  int    `json:"recovered"`
	Structured int    `json:"structured"`
	Violations int    `json:"violations"`
	// Recovery latency over the recovered iterations, nanoseconds.
	MaxRecoveryNS int64             `json:"max_recovery_ns,omitempty"`
	SumRecoveryNS int64             `json:"sum_recovery_ns,omitempty"`
	Rows          []ClusterChaosRow `json:"rows"`
}

// clusterChaosSpec derives one iteration's fault plan: which rank,
// which fault class, and when, all from the sub-seed.
func clusterChaosSpec(sub uint64) (mode, spec string) {
	rank := int(sub>>16) % 3
	at := 10 + (sub>>24)%40 // ms
	switch sub % 3 {
	case 0:
		return "kill", fmt.Sprintf("seed=%d,kill-rank=%d:%dms", sub, rank, at)
	case 1:
		return "sever", fmt.Sprintf("seed=%d,sever-rank=%d:%dms", sub, rank, at)
	default:
		return "wedge", fmt.Sprintf("seed=%d,wedge-rank=%d:%dms", sub, rank, at)
	}
}

// RunClusterChaos runs the chaos-under-cluster soak. Every iteration is
// a supervised run of the driver's command line: kills, severed links
// and wedges all recover by respawn (the faults are one-shot, so the
// retry is clean). The oracle gate is total — a "recovered" run whose
// result differs from the sequential oracle is a violation.
func RunClusterChaos(p Params, iters int, seed uint64, transport string, restarts int) *ClusterChaos {
	s := &ClusterChaos{Iterations: iters, Seed: seed, Transport: transport, Budget: restarts, N: p.SumEulerN}
	for i := 0; i < iters; i++ {
		mode, spec := clusterChaosSpec(splitmix64(seed + uint64(i)))
		row := ClusterChaosRow{Iter: i, Mode: mode, Spec: spec, Args: append(strings.Fields(fmt.Sprintf(
			"-runtime eden -cluster 3 -pes 1 -transport %s -n %d -restarts %d -deadline 30s",
			transport, p.SumEulerN, restarts)), "-faults", spec)}
		start := time.Now()
		out, err := driver.Exec("sumeuler", row.Args)
		row.WallNS = time.Since(start).Nanoseconds()
		if out != nil && out.Cluster != nil {
			res := out.Cluster
			row.Restarts, row.Attempts, row.RecoveryNS = res.Restarts, res.Attempts, res.RecoveryNS
		}
		row.Outcome, row.Detail = classifyClusterChaos(row, err)
		switch row.Outcome {
		case ChaosOK:
			s.OK++
		case ClusterChaosRecovered:
			s.Recovered++
			if row.RecoveryNS > s.MaxRecoveryNS {
				s.MaxRecoveryNS = row.RecoveryNS
			}
			s.SumRecoveryNS += row.RecoveryNS
		case ChaosStructured:
			s.Structured++
		default:
			s.Violations++
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// classifyClusterChaos sorts one supervised run into the soak's
// outcome classes; err is the driver's, so a result the oracle refuses
// is an error too.
func classifyClusterChaos(row ClusterChaosRow, err error) (string, string) {
	switch {
	case err == nil && row.Restarts > 0:
		return ClusterChaosRecovered, ""
	case err == nil:
		return ChaosOK, ""
	case faults.IsStructured(err):
		return ChaosStructured, err.Error()
	}
	return ChaosViolation, "unstructured failure: " + err.Error()
}

// Violating returns the rows that failed the soak's invariant.
func (s *ClusterChaos) Violating() []ClusterChaosRow {
	var out []ClusterChaosRow
	for _, r := range s.Rows {
		if r.Outcome == ChaosViolation {
			out = append(out, r)
		}
	}
	return out
}

// String renders the soak summary with the recovery latency figures
// and, when there are any, every violation with its repro command.
func (s *ClusterChaos) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Chaos-under-cluster soak: %d iterations, seed %d, %s transport, restart budget %d\n",
		s.Iterations, s.Seed, s.Transport, s.Budget)
	fmt.Fprintf(&sb, "  ok %d | recovered %d | structured %d | VIOLATIONS %d\n",
		s.OK, s.Recovered, s.Structured, s.Violations)
	if s.Recovered > 0 {
		fmt.Fprintf(&sb, "  recovery latency: mean %v, max %v\n",
			time.Duration(s.SumRecoveryNS/int64(s.Recovered)).Round(time.Millisecond),
			time.Duration(s.MaxRecoveryNS).Round(time.Millisecond))
	}
	if v := s.Violating(); len(v) > 0 {
		sb.WriteString("violations:\n")
		for _, r := range v {
			fmt.Fprintf(&sb, "  iter %d (%s): %s\n    repro: %s\n", r.Iter, r.Mode, r.Detail, r.Repro())
		}
	} else {
		sb.WriteString("invariant holds: every run ended oracle-equal (clean or recovered) or failed structurally\n")
	}
	return sb.String()
}

// JSON renders the full soak — the recovery-trace artifact CI uploads
// (every row carries its attempt history and latency).
func (s *ClusterChaos) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
