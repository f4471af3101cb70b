package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"strings"
	"time"

	"parhask/internal/cost"
	"parhask/internal/eden"
	"parhask/internal/faults"
	"parhask/internal/graph"
	"parhask/internal/native"
	"parhask/internal/nativeeden"
	"parhask/internal/stats"
	"parhask/internal/workloads"
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
// fault plan; see RunChaosSoak for which outcomes that pins), and how
// it ended.
type ChaosRow struct {
	Iter    int    `json:"iter"`
	Backend string `json:"backend"` // "native" | "nativeeden"
	Spec    string `json:"spec"`
	Outcome string `json:"outcome"`
	Detail  string `json:"detail,omitempty"`
	WallNS  int64  `json:"wall_ns"`
	// N / Chunks pin the workload scale so Repro replays the exact run.
	N      int `json:"n"`
	Chunks int `json:"chunks"`
}

// Repro is the command line that replays this iteration exactly.
func (r ChaosRow) Repro() string {
	if r.Backend == "nativeeden" {
		return fmt.Sprintf("go run ./cmd/sumeuler -runtime eden -pes %d -n %d -faults %q -deadline 10s",
			chaosEdenPEs, r.N, r.Spec)
	}
	return fmt.Sprintf("go run ./cmd/sumeuler -runtime native -workers %d -n %d -chunks %d -faults %q -deadline 10s",
		chaosGpHWorkers, r.N, r.Chunks, r.Spec)
}

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
// panic+stall combination, each parameterised from the sub-seed.
func chaosSpec(backend string, sub uint64) string {
	mode := sub % 5
	arg := (sub >> 8) % 16
	switch mode {
	case 0:
		if backend == "native" {
			return fmt.Sprintf("seed=%d,panic-spark=%d", sub, arg)
		}
		return fmt.Sprintf("seed=%d,panic-proc=%d", sub, arg%6)
	case 1:
		// Drops only matter where there are messages; on the GpH
		// backend this degenerates to a clean run, which is itself a
		// useful control case.
		return fmt.Sprintf("seed=%d,drop=0.4", sub)
	case 2:
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
	if err == nil {
		return ChaosOK, ""
	}
	var de *faults.DeadlockError
	if errors.As(err, &de) {
		if len(de.Blocked) == 0 {
			return ChaosViolation, "deadlock without diagnostics: " + err.Error()
		}
		return ChaosDeadlock, err.Error()
	}
	var ip *faults.InjectedPanic
	var me *eden.ChanMisuseError
	var se *eden.SendError
	var pz *graph.PoisonError
	var ce *euler.CheckError
	if errors.As(err, &ip) || errors.As(err, &me) || errors.As(err, &se) ||
		errors.As(err, &pz) || errors.As(err, &ce) {
		// CheckError is the workload's own integrity oracle tripping on
		// drop-induced data loss — detected corruption, not a hang or an
		// anonymous crash.
		return ChaosStructured, err.Error()
	}
	return ChaosViolation, "unstructured failure: " + err.Error()
}

// Chaos runs use fixed small backend shapes so the Repro command lines
// (which pin them as flags) replay the same schedule space. The program
// is the workload table's sumeuler entry at (N, Chunks) — the entry
// cmd/sumeuler runs — so a row and its Repro line are the same program
// by construction, Eden chunking included.
const (
	chaosGpHWorkers = 4
	chaosEdenPEs    = 3
)

// runChaosIter executes one fault-injected sumEuler run on the given
// backend and classifies the outcome. The spec must parse (callers
// validate or derive it).
func runChaosIter(inst *workloads.Instance, deadline time.Duration, backend, spec string) (outcome, detail string, wallNS int64) {
	plan, err := faults.Parse(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: chaos spec %q failed to parse: %v", spec, err))
	}
	if deadline == 0 {
		deadline = 10 * time.Second
	}
	start := time.Now()
	var runErr error
	var value graph.Value
	if backend == "native" {
		cfg := native.NewConfig(chaosGpHWorkers)
		cfg.Faults = faults.NewInjector(plan)
		cfg.Deadline = deadline
		var res *native.Result
		res, runErr = native.Run(cfg, must(inst.GpH()))
		if res != nil {
			value = res.Value
		}
	} else {
		cfg := nativeeden.NewConfig(chaosEdenPEs)
		cfg.Faults = faults.NewInjector(plan)
		cfg.Deadline = deadline
		var res *nativeeden.Result
		res, runErr = nativeeden.Run(cfg, must(inst.Eden(cost.Model{})))
		if res != nil {
			value = res.Value
		}
	}
	wallNS = time.Since(start).Nanoseconds()
	outcome, detail = classifyChaos(runErr)
	if outcome == ChaosOK {
		if _, err := inst.Check(value); err != nil {
			outcome, detail = ChaosViolation, err.Error()
		}
	}
	return outcome, detail, wallNS
}

// chaosInstance is the soak's program: sumEuler at p's scale.
func chaosInstance(p Params) *workloads.Instance { return must(p.instance("sumeuler", 0)) }

// must unwraps what cannot fail here: the table has a sumeuler entry
// with both forms, and the soak's scale is inside its ranges.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// ReplayFault re-runs one fault-injected sumEuler iteration from
// p.FaultSpec on the given backend ("native" or "nativeeden") — the
// cmd/benchall face of a ChaosRow's repro command. Callers validate
// the spec first (benchall does so fail-fast, before any figure runs).
func ReplayFault(p Params, backend string) ChaosRow {
	row := ChaosRow{Backend: backend, Spec: p.FaultSpec, N: p.SumEulerN, Chunks: p.SumEulerChunks}
	row.Outcome, row.Detail, row.WallNS = runChaosIter(chaosInstance(p), p.Deadline, backend, p.FaultSpec)
	return row
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
	inst := chaosInstance(p) // one instance: the sieve oracle runs once per soak
	for i := 0; i < iters; i++ {
		sub := splitmix64(seed + uint64(i))
		backend := "native"
		if i%2 == 1 {
			backend = "nativeeden"
		}
		row := ChaosRow{Iter: i, Backend: backend, Spec: chaosSpec(backend, sub),
			N: p.SumEulerN, Chunks: p.SumEulerChunks}
		row.Outcome, row.Detail, row.WallNS = runChaosIter(inst, p.Deadline, backend, row.Spec)
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
