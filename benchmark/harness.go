package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// provenance is the honesty header of every output: enough to tell two
// result files from different machines, commits or load conditions apart.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	P          int     `json:"p"`
	Seed       uint64  `json:"seed"`
	Date       string  `json:"date"`
	Load1      float64 `json:"load1"` // -1 when the host does not say
}

// parallelism is P, the unit count of every "full" phase.
func parallelism() int { return min(runtime.NumCPU(), 4) }

func newProvenance(seed uint64) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		P: parallelism(), Seed: seed,
		Date: time.Now().UTC().Format(time.RFC3339), Load1: -1,
	}
	// The acceptance checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		_, _ = fmt.Sscanf(string(b), "%f", &p.Load1)
	}
	return p
}

func (p provenance) String() string {
	return fmt.Sprintf("commit=%s %s %s/%s num_cpu=%d GOMAXPROCS=%d P=%d seed=%d date=%s load1=%.2f",
		p.Commit, p.GoVersion, p.GOOS, p.GOARCH, p.NumCPU, p.GOMAXPROCS, p.P, p.Seed, p.Date, p.Load1)
}

// cpuSeconds is user+system CPU time of this process and of every child
// it has waited for — cluster workers included, once cluster.Run returns.
func cpuSeconds() float64 {
	var t float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue
		}
		t += float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	return t
}

// peakRSSMB is the process's own high-water resident set (informational).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// retainedHeapMB is what the heap still holds once everything
// collectable is collected: caches, memo tables, arenas a layer kept.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcCounters is the process-wide collector state the per-layer GC
// metrics difference over a job.
type gcCounters struct {
	cycles  uint32
	pauseNS uint64
	alloc   uint64
}

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc}
}

// runCtx is what one run of one workload is given.
type runCtx struct {
	spec    *benchSpec
	seed    uint64
	seconds float64
	traced  bool
	p       int
	sz      sizes
	spans   *spanRec // nil unless traced
}

// runResult is what a workload hands back: raw samples and counters; the
// named metrics are derived from it in one place (metrics.go).
type runResult struct {
	attempted, failed int
	setupS            []float64
	// Job seconds by phase: "ref", "one", "full"; a traced run also
	// splits "full" into "full_traced" and "full_untraced".
	samples    map[string][]float64
	fullCPUS   float64 // CPU seconds of the process tree over the full-phase jobs
	fullWallS  float64 // wall seconds the full phase was being driven
	retainedMB float64
	flags      []string
	layer      map[string]float64 // job-derived per-layer values, by metric name
}

func newRunResult() *runResult {
	return &runResult{samples: map[string][]float64{}, layer: map[string]float64{}}
}
