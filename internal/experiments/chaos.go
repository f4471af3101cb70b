package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"strings"
	"time"

	"parhask/internal/cluster"
	"parhask/internal/driver"
	"parhask/internal/eden"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/stats"
	"parhask/internal/workloads/euler"
)

// Chaos outcome classes. Every iteration of the soak must land in one
// of the first four: a correct result, clean or after a cluster's
// full-run restart; a structured failure; or a deadlock report with
// diagnostics. "violation" — a wrong result, an unstructured failure,
// an undiagnosed deadlock, or a hang (which the per-run deadline
// converts into a reportable error) — is the class the soak exists to
// prove empty.
const (
	ChaosOK         = "ok"
	ChaosRecovered  = "recovered"
	ChaosStructured = "structured"
	ChaosDeadlock   = "deadlock"
	ChaosViolation  = "violation"
)

// The backend sets the soak rotates over: the in-process native
// backends, and the multi-process cluster.
var (
	InProcessBackends = []string{"native", "nativeeden"}
	ClusterBackends   = []string{"cluster"}
)

// ChaosRow is one soak iteration: which backend ran, under which fault
// spec (the replay key — feeding the same spec back injects the same
// fault plan; see RunChaos for which outcomes that pins), the
// cmd/sumeuler command line that ran it, and how it ended. A cluster
// row also names its fault class and carries its recovery telemetry:
// full-run restarts, the failed attempts, and the recovery latency
// (first failure to recovered result).
type ChaosRow struct {
	Iter       int               `json:"iter"`
	Backend    string            `json:"backend"`        // "native" | "nativeeden" | "cluster"
	Mode       string            `json:"mode,omitempty"` // cluster: kill | sever | wedge
	Spec       string            `json:"spec"`
	Args       []string          `json:"args"`
	Outcome    string            `json:"outcome"`
	Detail     string            `json:"detail,omitempty"`
	Restarts   int               `json:"restarts,omitempty"`
	Attempts   []cluster.Attempt `json:"attempts,omitempty"`
	RecoveryNS int64             `json:"recovery_ns,omitempty"`
	WallNS     int64             `json:"wall_ns"`
}

// Repro is the command line that ran this iteration. A soak's args are
// plain shell words (no spaces, quotes or globs), so they need no
// quoting.
func (r ChaosRow) Repro() string { return "go run ./cmd/sumeuler " + strings.Join(r.Args, " ") }

// ChaosSoak is the report of a seeded fault-injection soak.
type ChaosSoak struct {
	Iterations int      `json:"iterations"`
	Seed       uint64   `json:"seed"`
	Backends   []string `json:"backends"`
	OK         int      `json:"ok"`
	Recovered  int      `json:"recovered"`
	Structured int      `json:"structured"`
	Deadlocks  int      `json:"deadlocks"`
	Violations int      `json:"violations"`
	// Recovery latency over the recovered iterations, nanoseconds.
	MaxRecoveryNS int64      `json:"max_recovery_ns,omitempty"`
	SumRecoveryNS int64      `json:"sum_recovery_ns,omitempty"`
	Rows          []ChaosRow `json:"rows"`
}

// splitmix64 is the soak's per-iteration seed derivation (the same
// finalizer the injector hashes with, reused so sub-seeds are
// well-mixed but reproducible from the master seed alone).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Chaos runs use fixed small backend shapes and one deadline per
// backend, so the soak's rows cover one schedule space. A cluster run
// gets a restart budget and a longer deadline, which bounds each
// attempt.
const (
	chaosGpHWorkers      = 4
	chaosEdenPEs         = 3
	chaosClusterProcs    = 3
	chaosRestarts        = 2
	chaosDeadline        = 10 * time.Second
	chaosClusterDeadline = 30 * time.Second
)

// chaosClusterModes are the cluster's rank-level fault classes.
var chaosClusterModes = [...]string{"kill", "sever", "wedge"}

// chaosSpec derives a deterministic fault plan for one iteration, each
// parameterised from the sub-seed and each a clause the backend fires.
// In process: a panic, a message-drop edge, a message delay, a stalled
// PE, or a panic+stall combination. On the cluster: one rank killed,
// its control link severed, or wedged, at a seed-derived moment.
func chaosSpec(backend string, sub uint64) string {
	if backend == "cluster" {
		rank := (sub >> 16) % chaosClusterProcs
		at := 10 + (sub>>24)%40 // ms
		return fmt.Sprintf("seed=%d,%s-rank=%d:%dms", sub, chaosClusterModes[sub%3], rank, at)
	}
	mode := sub % 5
	arg := (sub >> 8) % 16
	switch mode {
	case 0:
		if backend == "native" {
			return fmt.Sprintf("seed=%d,panic-spark=%d", sub, arg)
		}
		return fmt.Sprintf("seed=%d,panic-proc=%d", sub, arg%6)
	case 1, 2:
		// Drops and delays only exist where there are messages; the GpH
		// backend runs a bare seed instead, a clean control case.
		if backend == "native" {
			return fmt.Sprintf("seed=%d", sub)
		}
		if mode == 1 {
			return fmt.Sprintf("seed=%d,drop=0.4", sub)
		}
		return fmt.Sprintf("seed=%d,delay=200us:0.5", sub)
	case 3:
		return fmt.Sprintf("seed=%d,stall=%d:1ms", sub, arg%4)
	default:
		if backend == "native" {
			return fmt.Sprintf("seed=%d,panic-spark=%d,stall=%d:500us", sub, arg, arg%4)
		}
		return fmt.Sprintf("seed=%d,panic-proc=%d,delay=100us:0.3", sub, arg%6)
	}
}

// chaosArgs is the command line of one iteration on backend: the
// workload table's sumeuler entry at the soak's scale, run through the
// same driver as cmd/sumeuler, so a row and its Repro line are the
// same program by construction.
func chaosArgs(p Params, backend, spec string) []string {
	var args string
	deadline := chaosDeadline
	switch backend {
	case "native":
		args = fmt.Sprintf("-runtime native -workers %d -n %d -chunks %d", chaosGpHWorkers, p.SumEulerN, p.SumEulerChunks)
	case "nativeeden":
		args = fmt.Sprintf("-runtime eden -pes %d -n %d", chaosEdenPEs, p.SumEulerN)
	default:
		args = fmt.Sprintf("-runtime eden -cluster %d -pes 1 -transport tcp -n %d -restarts %d",
			chaosClusterProcs, p.SumEulerN, chaosRestarts)
		deadline = chaosClusterDeadline
	}
	return append(strings.Fields(args), "-faults", spec, "-deadline", deadline.String())
}

// classifyChaos sorts one run into the soak's outcome classes. err is
// the driver's, so a result the oracle refuses is an error too, and
// restarts counts the full-run restarts a cluster run took to succeed.
func classifyChaos(restarts int, err error) (string, string) {
	var de *faults.DeadlockError
	var me *eden.ChanMisuseError
	var se *eden.SendError
	var pz *graph.PoisonError
	var ce *euler.CheckError
	switch {
	case err == nil && restarts > 0:
		return ChaosRecovered, ""
	case err == nil:
		return ChaosOK, ""
	case errors.As(err, &de) && de.Backend == "cluster":
		// The coordinator's deadline: it sees no PE inside its workers,
		// so its deadlock carries no Blocked list to diagnose.
		return ChaosStructured, err.Error()
	case de != nil && len(de.Blocked) == 0:
		return ChaosViolation, "deadlock without diagnostics: " + err.Error()
	case de != nil:
		return ChaosDeadlock, err.Error()
	case faults.IsStructured(err) || errors.As(err, &me) || errors.As(err, &se) ||
		errors.As(err, &pz) || errors.As(err, &ce):
		// CheckError is the workload's own integrity oracle tripping on
		// drop-induced data loss — detected corruption, not a hang or an
		// anonymous crash.
		return ChaosStructured, err.Error()
	}
	return ChaosViolation, "unstructured failure: " + err.Error()
}

// RunChaos runs iters seeded fault-injection iterations rotating over
// backends ("native", "nativeeden", "cluster"). Every iteration must
// terminate (the per-run deadline turns hangs into deadlock errors) and
// must end in a correct result — clean, or recovered by the cluster's
// full-run restart, whose result the oracle gates like any other — a
// structured failure, or a deadlock report with diagnostics; anything
// else is a violation. The cluster's rank faults are one-shot, so a
// restart is clean.
//
// Sub-seeds derive from seed alone, so an iteration's fault plan
// replays exactly from its row's Spec. The outcome class replays with
// it for plans indexed by what the program fixes (per-edge message
// sequence, process spawn order, PE stalls). A panic-spark=K plan is
// indexed by the order workers convert sparks, which is the schedule:
// on more than one core such a row lands in ok or structured from run
// to run (TestChaosSoakDeterministic asserts exactly this split).
func RunChaos(p Params, backends []string, iters int, seed uint64) *ChaosSoak {
	s := &ChaosSoak{Iterations: iters, Seed: seed, Backends: backends}
	for i := 0; i < iters; i++ {
		sub := splitmix64(seed + uint64(i))
		backend := backends[i%len(backends)]
		row := ChaosRow{Iter: i, Backend: backend, Spec: chaosSpec(backend, sub)}
		if backend == "cluster" {
			row.Mode = chaosClusterModes[sub%3]
		}
		row.Args = chaosArgs(p, backend, row.Spec)
		start := time.Now()
		out, err := driver.Exec("sumeuler", row.Args)
		row.WallNS = time.Since(start).Nanoseconds()
		if out != nil && out.Cluster != nil {
			res := out.Cluster
			row.Restarts, row.Attempts, row.RecoveryNS = res.Restarts, res.Attempts, res.RecoveryNS
		}
		row.Outcome, row.Detail = classifyChaos(row.Restarts, err)
		switch row.Outcome {
		case ChaosOK:
			s.OK++
		case ChaosRecovered:
			s.Recovered++
			s.MaxRecoveryNS = max(s.MaxRecoveryNS, row.RecoveryNS)
			s.SumRecoveryNS += row.RecoveryNS
		case ChaosStructured:
			s.Structured++
		case ChaosDeadlock:
			s.Deadlocks++
		default:
			s.Violations++
		}
		s.Rows = append(s.Rows, row)
	}
	return s
}

// Violating returns the rows that failed the soak's invariant.
func (s *ChaosSoak) Violating() []ChaosRow {
	var out []ChaosRow
	for _, r := range s.Rows {
		if r.Outcome == ChaosViolation {
			out = append(out, r)
		}
	}
	return out
}

// String renders the soak summary, the recovery latency when a run
// recovered, and every violation with its repro command, when there
// are any.
func (s *ChaosSoak) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Chaos soak: %d iterations, seed %d, backends %s\n", s.Iterations, s.Seed, strings.Join(s.Backends, ","))
	fmt.Fprintf(&sb, "  ok %d | recovered %d | structured %d | deadlock %d | VIOLATIONS %d\n",
		s.OK, s.Recovered, s.Structured, s.Deadlocks, s.Violations)
	if s.Recovered > 0 {
		fmt.Fprintf(&sb, "  recovery latency: mean %v, max %v\n",
			time.Duration(s.SumRecoveryNS/int64(s.Recovered)).Round(time.Millisecond),
			time.Duration(s.MaxRecoveryNS).Round(time.Millisecond))
	}
	if v := s.Violating(); len(v) > 0 {
		sb.WriteString("violations:\n")
		for _, r := range v {
			fmt.Fprintf(&sb, "  iter %d (%s): %s\n    repro: %s\n", r.Iter, r.Backend, r.Detail, r.Repro())
		}
	} else {
		sb.WriteString("invariant holds: every run ended in a correct result (clean or recovered), a structured failure, or a diagnosed deadlock\n")
	}
	return sb.String()
}

// JSON renders the full soak for results artifacts; a cluster row
// carries its attempt history and recovery latency.
func (s *ChaosSoak) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// HTML renders the soak as a self-contained report — the artifact the
// CI chaos job uploads, with a repro command per non-ok row.
func (s *ChaosSoak) HTML() []byte {
	var sb strings.Builder
	sb.WriteString("<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>Chaos soak</title><style>")
	sb.WriteString("body{font-family:monospace;margin:2em}table{border-collapse:collapse}")
	sb.WriteString("td,th{border:1px solid #999;padding:2px 8px;text-align:left}")
	sb.WriteString(".ok,.recovered{background:#e7f7e7}.structured{background:#fdf3d7}.deadlock{background:#fde2c7}.violation{background:#f7d7d7}")
	sb.WriteString("</style></head><body>")
	fmt.Fprintf(&sb, "<h1>Chaos soak</h1><p>%d iterations, seed %d: %d ok, %d recovered, %d structured, %d deadlock, <b>%d violations</b></p>",
		s.Iterations, s.Seed, s.OK, s.Recovered, s.Structured, s.Deadlocks, s.Violations)
	sb.WriteString("<table><tr><th>iter</th><th>backend</th><th>spec</th><th>outcome</th><th>wall</th><th>detail / repro</th></tr>")
	for _, r := range s.Rows {
		detail := html.EscapeString(r.Detail)
		if r.Outcome != ChaosOK {
			detail += "<br><code>" + html.EscapeString(r.Repro()) + "</code>"
		}
		fmt.Fprintf(&sb, "<tr class=%q><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			r.Outcome, r.Iter, r.Backend, html.EscapeString(r.Spec), r.Outcome, stats.Seconds(r.WallNS), detail)
	}
	sb.WriteString("</table></body></html>\n")
	return []byte(sb.String())
}
