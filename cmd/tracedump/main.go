// Command tracedump renders the paper's trace figures (Figs. 2 and 4)
// as ASCII timelines, or exports the raw segments for external plotting:
//
//	tracedump -experiment sumeuler          # Fig. 2 (five sumEuler traces)
//	tracedump -experiment matmul            # Fig. 4 (five matmul traces)
//	tracedump -experiment sumeuler -quick   # scaled-down parameters
//	tracedump -experiment matmul -format csv   # segment dump (EdenTV-style)
//	tracedump -experiment matmul -format json
//
// A wall-clock timeline of a native run comes from the workload command
// that runs it, with the same exporters (see internal/driver):
//
//	sumeuler -runtime native -workers 4 -eager -trace=html > native.html
//	sumeuler -runtime eden -pes 4 -faults "seed=7,panic-proc=0" -deadline 10s -trace=html > failed.html
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
)

// options is tracedump's whole command-line surface.
type options struct {
	experiment, format, job, server string
	quick                           bool
	width                           int
}

// newFlags registers every tracedump flag on fs.
func newFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.experiment, "experiment", "sumeuler", "sumeuler (Fig. 2) or matmul (Fig. 4)")
	fs.BoolVar(&o.quick, "quick", false, "use scaled-down parameters")
	fs.IntVar(&o.width, "width", 100, "trace width in columns")
	fs.StringVar(&o.format, "format", "ascii", "ascii | csv | json | html")
	fs.StringVar(&o.job, "job", "", "render a traced job's timeline fetched from a live server (trace id, e.g. t-17)")
	fs.StringVar(&o.server, "server", "http://localhost:8080", "server base URL for -job")
	return o
}

// validate rejects a bad command line before any figure runs.
func (o *options) validate() error {
	switch o.format {
	case "ascii", "csv", "json", "html":
	default:
		return fmt.Errorf("unknown -format %q (want ascii, csv, json or html)", o.format)
	}
	if o.job == "" && o.experiment != "sumeuler" && o.experiment != "matmul" {
		return fmt.Errorf("unknown -experiment %q (want sumeuler or matmul)", o.experiment)
	}
	return nil
}

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
	return experiments.TraceEntry{
		Name: name, Elapsed: d.WallNS, Trace: tl,
		Rendered: tl.Render(width), Summary: tl.Summary(),
	}, nil
}

func main() {
	o := newFlags(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(2)
	}
	p := experiments.Defaults()
	if o.quick {
		p = experiments.Quick()
	}
	p.TraceWidth = o.width

	var entries []experiments.TraceEntry
	var rendered string
	switch {
	case o.job != "":
		e, err := fetchJobTrace(o.server, o.job, o.width)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracedump:", err)
			os.Exit(2)
		}
		entries = []experiments.TraceEntry{e}
		rendered = fmt.Sprintf("%s\n%s\n%s", e.Name, e.Rendered, e.Summary)
	case o.experiment == "sumeuler":
		f := experiments.RunFig2(p)
		entries, rendered = f.Entries, f.String()
	default:
		f := experiments.RunFig4(p)
		entries, rendered = f.Entries, f.String()
	}

	if o.format == "ascii" {
		fmt.Println(rendered)
		return
	}
	for _, e := range entries {
		var err error
		switch o.format {
		case "csv":
			fmt.Printf("# %s\n", e.Name)
			err = e.Trace.WriteCSV(os.Stdout)
		case "json":
			fmt.Printf("// %s\n", e.Name)
			err = e.Trace.WriteJSON(os.Stdout)
		default:
			err = e.Trace.WriteHTML(os.Stdout, e.Name)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracedump:", err)
			os.Exit(1)
		}
	}
}
