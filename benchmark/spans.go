package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"parhask/internal/trace"
)

// span is one interval the benchmark recorded around a call it made into
// a layer, or one agent/state band taken from the timeline that call
// returned. Times are nanoseconds since the recorder started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = no parent
	Job     int    `json:"job"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// spanRec keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay a nil check per boundary.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

func (r *spanRec) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *spanRec) begin(parent, job int, name, layer string) int {
	if r == nil {
		return 0
	}
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job,
		Name: name, Layer: layer, StartNS: now, EndNS: now})
	return len(r.spans)
}

func (r *spanRec) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.now()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// timeline hangs a returned per-agent timeline under the span of the
// call that produced it: one child per agent spanning the call, and under
// each agent one child per trace.State the agent spent time in, laid end
// to end in state order (the total per state is what the layer metrics
// use; the order within a job is in the runtime's own eventlog).
func (r *spanRec) timeline(parent, job int, layer string, tl *trace.Log) {
	if r == nil || tl == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	for _, a := range tl.Agents() {
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Job: job,
			Name: a.Name, Layer: layer, StartNS: p.StartNS, EndNS: p.EndNS})
		agent := len(r.spans)
		at := p.StartNS
		for s := trace.State(0); int(s) < trace.NumStates; s++ {
			d := a.TimeIn(s)
			if d == 0 {
				continue
			}
			r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: agent, Job: job,
				Name: a.Name + ":" + s.String(), Layer: layer, StartNS: at, EndNS: at + d})
			at += d
		}
	}
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover (children of parallel agents
// overlap, so the cover is a union, not a sum).
func (r *spanRec) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.SelfNS = (s.EndNS - s.StartNS) - covered(kids[s.ID], s.StartNS, s.EndNS)
	}
	return r.spans
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, x := range iv {
		a, b := max(x[0], at), min(x[1], hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// traceFile is benchmark/out/<workload>.trace.json.
type traceFile struct {
	Provenance   provenance         `json:"provenance"`
	Workload     string             `json:"workload"`
	SelfSByLayer map[string]float64 `json:"self_s_by_layer"`
	Spans        []span             `json:"spans"`
}

func writeTraceFile(dir, workload string, prov provenance, spans []span) (string, error) {
	tf := traceFile{Provenance: prov, Workload: workload, Spans: spans,
		SelfSByLayer: map[string]float64{}}
	for _, s := range spans {
		tf.SelfSByLayer[s.Layer] += float64(s.SelfNS) / 1e9
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, writeJSONFile(path, tf)
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
