// Command tracedump renders the paper's trace figures (Figs. 2 and 4)
// as ASCII timelines, or exports the raw segments for external plotting:
//
//	tracedump -experiment sumeuler          # Fig. 2 (five sumEuler traces)
//	tracedump -experiment matmul            # Fig. 4 (five matmul traces)
//	tracedump -experiment sumeuler -quick   # scaled-down parameters
//	tracedump -experiment matmul -format csv   # segment dump (EdenTV-style)
//	tracedump -experiment matmul -format json
//
// With -native it renders a *wall-clock* timeline instead: the workload
// runs on the real-goroutine work-stealing runtime with the eventlog
// enabled, and the reduced per-worker trace goes through the same
// exporters (so the native run draws exactly like the simulated
// figures, except that its shape is machine-dependent):
//
//	tracedump -native sumeuler -workers 4
//	tracedump -native apsp -workers 8 -format html > apsp.html
//
// With -edennative it renders the GpH-native and Eden-native wall-clock
// timelines of one workload back to back — the real-hardware version of
// the paper's GpH-vs-Eden trace comparison (message traffic shows up as
// the Eden timeline's comm bands):
//
//	tracedump -edennative sumeuler -pes 4 -format html > headtohead.html
//
// With -faults (internal/faults spec grammar) and -deadline the native
// runs execute under deterministic fault injection with the deadlock
// watchdog armed; a failed run still renders — the partial timeline up
// to the crash or diagnosed deadlock is emitted (the post-mortem view)
// and tracedump exits non-zero:
//
//	tracedump -native sumeuler -faults "seed=7,panic-spark=3" -deadline 10s
//
// With -job it renders one request's cross-worker timeline fetched from
// a *live* server (the job must have been submitted with "trace":true;
// its response carries the trace id):
//
//	tracedump -job t-17 -server http://localhost:8080
//	tracedump -job t-17 -server http://localhost:8080 -format html > job.html
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"parhask/internal/eventlog"
	"parhask/internal/experiments"
	"parhask/internal/faults"
)

// fetchJobTrace pulls a stored per-job dump from a running server and
// reconstructs its timeline, exactly as the serve tests do in-process.
func fetchJobTrace(server, id string, width int) (experiments.TraceEntry, error) {
	var e experiments.TraceEntry
	url := strings.TrimRight(server, "/") + "/api/v1/trace?id=" + id
	c := &http.Client{Timeout: 30 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return e, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return e, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var d eventlog.Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return e, fmt.Errorf("decode trace dump: %v", err)
	}
	rl, err := d.Log()
	if err != nil {
		return e, err
	}
	tl := rl.TraceAgents(d.Agents)
	name := fmt.Sprintf("job %s: %s on %s (tenant %s)", d.TraceID, d.Workload, d.Backend, d.Tenant)
	if d.Error != "" {
		name += " [failed: " + d.Error + "]"
	}
	e = experiments.TraceEntry{
		Name: name, Elapsed: d.WallNS, Trace: tl,
		Rendered: tl.Render(width), Summary: tl.Summary(),
	}
	return e, nil
}

func main() {
	exp := flag.String("experiment", "sumeuler", "sumeuler (Fig. 2) or matmul (Fig. 4)")
	nativeWl := flag.String("native", "", "render a wall-clock native-runtime timeline instead: sumeuler | matmul | apsp")
	edenWl := flag.String("edennative", "", "render the GpH-native vs Eden-native timelines of a workload: sumeuler | matmul | apsp")
	workers := flag.Int("workers", 0, "native worker goroutines (default: GOMAXPROCS)")
	pes := flag.Int("pes", 0, "Eden-native processing elements (default: GOMAXPROCS)")
	eager := flag.Bool("eager", true, "native black-holing policy (eager claim vs lazy baseline)")
	quick := flag.Bool("quick", false, "use scaled-down parameters")
	width := flag.Int("width", 100, "trace width in columns")
	format := flag.String("format", "ascii", "ascii | csv | json | html")
	faultSpec := flag.String("faults", "", "fault-injection spec for -native/-edennative runs (internal/faults grammar)")
	deadline := flag.Duration("deadline", 0, "deadlock-watchdog deadline for -native/-edennative runs (0 = disabled)")
	jobID := flag.String("job", "", "render a traced job's timeline fetched from a live server (trace id, e.g. t-17)")
	server := flag.String("server", "http://localhost:8080", "server base URL for -job")
	flag.Parse()

	p := experiments.Defaults()
	if *quick {
		p = experiments.Quick()
	}
	p.TraceWidth = *width

	// Fail fast on the fault flags, before any run starts.
	if *faultSpec != "" || *deadline != 0 {
		if *nativeWl == "" && *edenWl == "" {
			fmt.Fprintln(os.Stderr, "tracedump: -faults/-deadline apply only to -native or -edennative timelines")
			os.Exit(2)
		}
		if _, err := faults.CLIInjector(*faultSpec, *deadline, "native"); err != nil {
			fmt.Fprintln(os.Stderr, "tracedump:", err)
			os.Exit(2)
		}
		p.FaultSpec = *faultSpec
		p.Deadline = *deadline
	}

	// keepPartial decides what to do with a failed timeline run: a
	// failure that still produced a trace (fault injection, deadlock)
	// is rendered as a partial timeline; one without a trace is fatal.
	runFailed := false
	keepPartial := func(e experiments.TraceEntry, err error) experiments.TraceEntry {
		if err == nil {
			return e
		}
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		if e.Trace == nil {
			os.Exit(2)
		}
		runFailed = true
		return e
	}

	var entries []experiments.TraceEntry
	var rendered string
	if *jobID != "" {
		e, err := fetchJobTrace(*server, *jobID, *width)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracedump:", err)
			os.Exit(2)
		}
		entries = []experiments.TraceEntry{e}
		rendered = fmt.Sprintf("%s\n%s\n%s", e.Name, e.Rendered, e.Summary)
	} else if *edenWl != "" {
		ge, err := experiments.NativeTimeline(p, *edenWl, *workers, *eager)
		ge = keepPartial(ge, err)
		ee, err := experiments.EdenNativeTimeline(p, *edenWl, *pes)
		ee = keepPartial(ee, err)
		entries = []experiments.TraceEntry{ge, ee}
		rendered = fmt.Sprintf("%s\n%s\n%s\n\n%s\n%s\n%s",
			ge.Name, ge.Rendered, ge.Summary, ee.Name, ee.Rendered, ee.Summary)
	} else if *nativeWl != "" {
		e, err := experiments.NativeTimeline(p, *nativeWl, *workers, *eager)
		e = keepPartial(e, err)
		entries = []experiments.TraceEntry{e}
		rendered = fmt.Sprintf("%s\n%s\n%s", e.Name, e.Rendered, e.Summary)
	} else {
		switch *exp {
		case "sumeuler":
			f := experiments.RunFig2(p)
			entries, rendered = f.Entries, f.String()
		case "matmul":
			f := experiments.RunFig4(p)
			entries, rendered = f.Entries, f.String()
		default:
			fmt.Fprintf(os.Stderr, "tracedump: unknown -experiment %q (want sumeuler or matmul)\n", *exp)
			os.Exit(2)
		}
	}

	switch *format {
	case "ascii":
		fmt.Println(rendered)
	case "csv":
		for _, e := range entries {
			fmt.Printf("# %s\n", e.Name)
			if err := e.Trace.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "tracedump:", err)
				os.Exit(1)
			}
		}
	case "json":
		for _, e := range entries {
			fmt.Printf("// %s\n", e.Name)
			if err := e.Trace.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "tracedump:", err)
				os.Exit(1)
			}
		}
	case "html":
		for _, e := range entries {
			if err := e.Trace.WriteHTML(os.Stdout, e.Name); err != nil {
				fmt.Fprintln(os.Stderr, "tracedump:", err)
				os.Exit(1)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "tracedump: unknown -format %q\n", *format)
		os.Exit(2)
	}
	if runFailed {
		// The partial timeline was rendered; still signal the failure.
		os.Exit(1)
	}
}
