package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"parhask/internal/cluster"
	"parhask/internal/faults"
	"parhask/internal/graph"
)

// Cluster chaos outcome classes. "ok" — the fault never bit (or was
// absorbed invisibly); "recovered" — the run failed or lost a link and
// the supervisor healed it into an oracle-equal result; "structured" —
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
	// kill | flap | sever | wedge.
	Mode    string `json:"mode"`
	Spec    string `json:"spec"`
	Outcome string `json:"outcome"`
	Detail  string `json:"detail,omitempty"`
	// Recovery telemetry: full-run restarts, in-place link reconnects,
	// the attempt history, and the recovery latency (first failure to
	// recovered result) when a restart happened.
	Restarts   int               `json:"restarts,omitempty"`
	Reconnects int               `json:"reconnects,omitempty"`
	Attempts   []cluster.Attempt `json:"attempts,omitempty"`
	RecoveryNS int64             `json:"recovery_ns,omitempty"`
	WallNS     int64             `json:"wall_ns"`
}

// Repro is the command line that replays this iteration exactly.
func (r ClusterChaosRow) Repro(transport string, restarts int, n int) string {
	return fmt.Sprintf("go run ./cmd/sumeuler -runtime eden -cluster 3 -pes 1 -transport %s -n %d -faults %q -restarts %d -deadline 30s",
		transport, n, r.Spec, restarts)
}

// ClusterChaos is the chaos-under-cluster soak report: iters supervised
// 3-process sumEuler runs, each with one rank killed, link-flapped,
// severed or wedged at a seed-derived moment, under a restart budget.
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
	switch sub % 4 {
	case 0:
		return "kill", fmt.Sprintf("seed=%d,kill-rank=%d:%dms", sub, rank, at)
	case 1:
		down := 30 + (sub>>32)%90 // ms
		return "flap", fmt.Sprintf("seed=%d,flap-rank=%d:%dms:%dms", sub, rank, at, down)
	case 2:
		return "sever", fmt.Sprintf("seed=%d,sever-rank=%d:%dms", sub, rank, at)
	default:
		return "wedge", fmt.Sprintf("seed=%d,wedge-rank=%d:%dms", sub, rank, at)
	}
}

// RunClusterChaos runs the chaos-under-cluster soak. Every iteration is
// a supervised run: kills and wedges recover by respawn (the faults are
// one-shot, so the retry is clean), flaps recover in place over the
// reconnection protocol, and severed links burn a restart. The oracle
// gate is total — a "recovered" run whose result differs from the
// sequential oracle is a violation, which is exactly the corruption the
// reconnect's resend protocol exists to prevent.
func RunClusterChaos(p Params, iters int, seed uint64, transport string, restarts int, reconnect bool) *ClusterChaos {
	n := p.SumEulerN
	s := &ClusterChaos{Iterations: iters, Seed: seed, Transport: transport, Budget: restarts, N: n}
	spec := fmt.Sprintf("sumeuler?n=%d&pechunks=8", n)
	_, oracle, err := cluster.BuildProgram(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: cluster chaos spec %q: %v", spec, err))
	}
	for i := 0; i < iters; i++ {
		sub := splitmix64(seed + uint64(i))
		mode, fspec := clusterChaosSpec(sub)
		row := ClusterChaosRow{Iter: i, Mode: mode, Spec: fspec}
		cfg := cluster.Config{
			Procs: 3, PerProc: 1, Transport: transport,
			Spec: spec, Faults: fspec,
			Heartbeat: 100 * time.Millisecond,
			Deadline:  30 * time.Second,
			Restart:   &cluster.Restart{Max: restarts, Backoff: 50 * time.Millisecond, RetryDeadlocks: true},
		}
		if !reconnect {
			// Without in-place reconnection every link fault burns a
			// restart instead — the soak still must end oracle-equal.
			cfg.ReconnectWindow = -1
		}
		start := time.Now()
		res, runErr := cluster.RunSupervised(cfg)
		row.WallNS = time.Since(start).Nanoseconds()
		if res != nil {
			row.Restarts = res.Restarts
			row.Reconnects = res.Reconnects
			row.Attempts = res.Attempts
			row.RecoveryNS = res.RecoveryNS
		}
		row.Outcome, row.Detail = classifyClusterChaos(res, runErr, oracle)
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
// outcome classes.
func classifyClusterChaos(res *cluster.Result, err error, oracle func(graph.Value) error) (string, string) {
	if err == nil {
		if res == nil {
			return ChaosViolation, "nil result without an error"
		}
		if oerr := oracle(res.Value); oerr != nil {
			return ChaosViolation, "recovered result fails the oracle: " + oerr.Error()
		}
		if res.Restarts > 0 || res.Reconnects > 0 {
			return ClusterChaosRecovered, ""
		}
		return ChaosOK, ""
	}
	var ex *cluster.RestartsExhaustedError
	var pd *faults.ProcessDeathError
	var de *faults.DeadlockError
	if errors.As(err, &ex) || errors.As(err, &pd) || errors.As(err, &de) {
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
			fmt.Fprintf(&sb, "  iter %d (%s): %s\n    repro: %s\n", r.Iter, r.Mode, r.Detail, r.Repro(s.Transport, s.Budget, s.N))
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
