package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"strings"
	"time"

	"parhask/internal/driver"
	"parhask/internal/eden"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/stats"
	"parhask/internal/workloads/euler"
)

// Chaos outcome classes. Every iteration of the soak must land in one
// of the first three; "violation" — a wrong result, an unstructured
// failure, or a hang (which the per-run deadline converts into a
// reportable error) — is the class the soak exists to prove empty.
const (
	ChaosOK         = "ok"
	ChaosStructured = "structured"
	ChaosDeadlock   = "deadlock"
	ChaosViolation  = "violation"
)

// ChaosRow is one soak iteration: which backend ran, under which fault
// spec (the replay key — feeding the same spec back injects the same
// fault plan; see RunChaosSoak for which outcomes that pins), the
// cmd/sumeuler command line that ran it, and how it ended.
type ChaosRow struct {
	Iter    int      `json:"iter"`
	Backend string   `json:"backend"` // "native" | "nativeeden"
	Spec    string   `json:"spec"`
	Args    []string `json:"args"`
	Outcome string   `json:"outcome"`
	Detail  string   `json:"detail,omitempty"`
	WallNS  int64    `json:"wall_ns"`
}

// Repro is the command line that ran this iteration.
func (r ChaosRow) Repro() string { return repro(r.Args) }

// repro is the shell command that runs cmd/sumeuler on args. A soak's
// args are plain shell words (no spaces, quotes or globs), so they
// need no quoting.
func repro(args []string) string { return "go run ./cmd/sumeuler " + strings.Join(args, " ") }

// ChaosSoak is the report of a seeded fault-injection soak over both
// native backends.
type ChaosSoak struct {
	Iterations int        `json:"iterations"`
	Seed       uint64     `json:"seed"`
	OK         int        `json:"ok"`
	Structured int        `json:"structured"`
	Deadlocks  int        `json:"deadlocks"`
	Violations int        `json:"violations"`
	Rows       []ChaosRow `json:"rows"`
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

// chaosSpec derives a deterministic fault plan for one iteration: a
// panic, a message-drop edge, a message delay, a stalled PE, or a
// panic+stall combination, each parameterised from the sub-seed, and
// each a clause the backend fires.
func chaosSpec(backend string, sub uint64) string {
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

// classifyChaos sorts a run error into the soak's outcome classes.
func classifyChaos(err error) (string, string) {
	var de *faults.DeadlockError
	var me *eden.ChanMisuseError
	var se *eden.SendError
	var pz *graph.PoisonError
	var ce *euler.CheckError
	switch {
	case err == nil:
		return ChaosOK, ""
	case errors.As(err, &de) && len(de.Blocked) == 0:
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

// Chaos runs use fixed small backend shapes and one deadline, so the
// soak's rows cover one schedule space. Each row is the command line
// cmd/sumeuler runs (the workload table's sumeuler entry at the soak's
// scale), run through the same driver, so a row and its Repro line are
// the same program by construction.
const (
	chaosGpHWorkers = 4
	chaosEdenPEs    = 3
	chaosDeadline   = 10 * time.Second
)

// chaosArgs is the command line of one iteration on backend.
func chaosArgs(p Params, backend, spec string) []string {
	args := fmt.Sprintf("-runtime native -workers %d -n %d -chunks %d", chaosGpHWorkers, p.SumEulerN, p.SumEulerChunks)
	if backend == "nativeeden" {
		args = fmt.Sprintf("-runtime eden -pes %d -n %d", chaosEdenPEs, p.SumEulerN)
	}
	return append(strings.Fields(args), "-faults", spec, "-deadline", chaosDeadline.String())
}

// RunChaosSoak runs iters seeded fault-injection iterations alternating
// between the native GpH and native Eden backends. Every iteration
// must terminate (the per-run deadline turns hangs into structured
// deadlock errors) and must end in a correct result, a structured
// failure, or a deadlock report with diagnostics; anything else is a
// violation. Sub-seeds derive from seed alone, so an iteration's fault
// plan replays exactly from its row's Spec. The outcome class replays
// with it for plans indexed by what the program fixes (per-edge message
// sequence, process spawn order, PE stalls). A panic-spark=K plan is
// indexed by the order workers convert sparks, which is the schedule:
// on more than one core such a row lands in ok or structured from run
// to run (TestChaosSoakDeterministic asserts exactly this split).
func RunChaosSoak(p Params, iters int, seed uint64) *ChaosSoak {
	s := &ChaosSoak{Iterations: iters, Seed: seed}
	for i := 0; i < iters; i++ {
		sub := splitmix64(seed + uint64(i))
		backend := "native"
		if i%2 == 1 {
			backend = "nativeeden"
		}
		row := ChaosRow{Iter: i, Backend: backend, Spec: chaosSpec(backend, sub)}
		row.Args = chaosArgs(p, backend, row.Spec)
		start := time.Now()
		_, err := driver.Exec("sumeuler", row.Args)
		row.WallNS = time.Since(start).Nanoseconds()
		row.Outcome, row.Detail = classifyChaos(err)
		switch row.Outcome {
		case ChaosOK:
			s.OK++
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

// String renders the soak summary (and every violation with its repro
// command, when there are any).
func (s *ChaosSoak) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Chaos soak: %d iterations, seed %d\n", s.Iterations, s.Seed)
	fmt.Fprintf(&sb, "  ok %d | structured %d | deadlock %d | VIOLATIONS %d\n",
		s.OK, s.Structured, s.Deadlocks, s.Violations)
	if v := s.Violating(); len(v) > 0 {
		sb.WriteString("violations:\n")
		for _, r := range v {
			fmt.Fprintf(&sb, "  iter %d (%s): %s\n    repro: %s\n", r.Iter, r.Backend, r.Detail, r.Repro())
		}
	} else {
		sb.WriteString("invariant holds: every run ended in a correct result, a structured failure, or a diagnosed deadlock\n")
	}
	return sb.String()
}

// JSON renders the full soak for results artifacts.
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
	sb.WriteString(".ok{background:#e7f7e7}.structured{background:#fdf3d7}.deadlock{background:#fde2c7}.violation{background:#f7d7d7}")
	sb.WriteString("</style></head><body>")
	fmt.Fprintf(&sb, "<h1>Chaos soak</h1><p>%d iterations, seed %d: %d ok, %d structured, %d deadlock, <b>%d violations</b></p>",
		s.Iterations, s.Seed, s.OK, s.Structured, s.Deadlocks, s.Violations)
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
