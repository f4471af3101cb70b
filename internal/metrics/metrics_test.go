package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestBucketGeometry(t *testing.T) {
	// Every representable value must land in a bucket whose bounds
	// contain it, and indices must be monotone in the value.
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1025,
		1 << 20, 1<<20 + 1, 1 << 40, 1<<62 - 1, 1 << 62, 1<<63 - 1} {
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		// The top bucket's bound is clamped to MaxInt64 and treated
		// as inclusive; every other bucket is half-open.
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d in bucket %d with bounds [%d,%d)", v, idx, lo, hi)
		}
		if idx < prev {
			t.Fatalf("bucket index not monotone at %d: %d < %d", v, idx, prev)
		}
		if idx >= histBuckets {
			t.Fatalf("bucket index %d out of range for value %d", idx, v)
		}
		prev = idx
	}
}

func TestHistogramConcurrentConservation(t *testing.T) {
	// Concurrent recorders; the merged snapshot must conserve the
	// total count and sum exactly. Run under -race in CI.
	reg := New()
	h := reg.Histogram("t_seconds", "test", 1e-9)
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	sums := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < perG; i++ {
				v := rng.Int63n(1 << 30)
				sums[g] += v
				h.Observe(v)
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if want := int64(goroutines * perG); snap.Count != want {
		t.Fatalf("count not conserved: got %d want %d", snap.Count, want)
	}
	var bucketTotal, wantSum int64
	for _, n := range snap.Counts {
		bucketTotal += n
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket counts %d != count %d", bucketTotal, snap.Count)
	}
	for _, s := range sums {
		wantSum += s
	}
	if snap.Sum != wantSum {
		t.Fatalf("sum not conserved: got %d want %d", snap.Sum, wantSum)
	}

	// Merging two snapshots adds exactly.
	merged := &HistSnapshot{}
	merged.Merge(snap)
	merged.Merge(snap)
	if merged.Count != 2*snap.Count || merged.Sum != 2*snap.Sum {
		t.Fatalf("merge not additive: %d/%d vs %d/%d", merged.Count, merged.Sum, snap.Count, snap.Sum)
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	// Against a known sample set, the histogram quantile (bucket
	// midpoint, rank = ceil(q*N)) must be within half a bucket width
	// of the exact same-rank order statistic — i.e. within 1/16
	// relative error for values >= 8.
	reg := New()
	h := reg.Histogram("q_seconds", "test", 1e-9)
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform spread over ~5 decades, the shape of a latency
		// distribution.
		v := int64(1) << uint(rng.Intn(24))
		v += rng.Int63n(v)
		samples = append(samples, v)
		h.Observe(v)
	}
	snap := h.Snapshot()
	sorted := append([]int64{}, samples...)
	sortInt64(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		rank := int64(float64(len(sorted)) * q)
		if rank < 1 {
			rank = 1
		}
		exact := sorted[rank-1]
		got := snap.Quantile(q)
		lo, hi := bucketBounds(bucketIndex(exact))
		if got < lo || got >= hi {
			t.Fatalf("q=%.2f: estimate %d outside exact value %d's bucket [%d,%d)", q, got, exact, lo, hi)
		}
		relErr := float64(got-exact) / float64(exact)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 1.0/16 {
			t.Fatalf("q=%.2f: relative error %.4f exceeds 1/16 (got %d, exact %d)", q, relErr, got, exact)
		}
	}
}

func sortInt64(s []int64) {
	// Tiny shellsort to avoid importing sort with a wrapper type.
	for gap := len(s) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(s); i++ {
			for j := i; j >= gap && s[j-gap] > s[j]; j -= gap {
				s[j-gap], s[j] = s[j], s[j-gap]
			}
		}
	}
}

func TestDisabledAndEnabledPathsAllocFree(t *testing.T) {
	// Disabled path: nil receivers must be no-ops with zero
	// allocations — the same contract as the eventlog.
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.AddAt(3, 1)
		g.Set(2.5)
		h.Observe(12345)
	}); n != 0 {
		t.Fatalf("disabled path allocates: %.1f allocs/op", n)
	}
	// Enabled path: the record hot path is also allocation-free.
	reg := New()
	ec := reg.Counter("c_total", "test")
	eg := reg.Gauge("g", "test")
	eh := reg.Histogram("h_seconds", "test", 1e-9)
	if n := testing.AllocsPerRun(1000, func() {
		ec.Add(1)
		ec.AddAt(3, 1)
		eg.Set(2.5)
		eh.Observe(12345)
	}); n != 0 {
		t.Fatalf("enabled path allocates: %.1f allocs/op", n)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	reg := New()
	a := reg.Counter("jobs_total", "jobs", "outcome", "ok")
	b := reg.Counter("jobs_total", "jobs", "outcome", "ok")
	if a != b {
		t.Fatal("same family+labels returned distinct counters")
	}
	other := reg.Counter("jobs_total", "jobs", "outcome", "error")
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	ha := reg.Histogram("lat_seconds", "latency", 1e-9)
	hb := reg.Histogram("lat_seconds", "latency", 1e-9)
	if ha != hb {
		t.Fatal("same histogram family returned distinct histograms")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	reg.Gauge("jobs_total", "jobs")
}

func TestWritePrometheusAndParseRoundTrip(t *testing.T) {
	reg := New()
	reg.Counter("jobs_total", "jobs", "outcome", "ok").Add(9)
	reg.Counter("jobs_total", "jobs", "outcome", "error").Add(2)
	reg.Gauge("depth", "queue depth").Set(3)
	reg.GaugeFunc("uptime_seconds", "uptime", func() float64 { return 12.5 })
	reg.CounterFunc("steals_total", "steals", func() float64 { return 41 })
	h := reg.Histogram("lat_seconds", "latency", 1e-9)
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000) // 1µs .. 100µs
	}
	collected := false
	reg.AddCollector(func() { collected = true })

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !collected {
		t.Fatal("collector did not run during exposition")
	}
	text := buf.String()
	for _, want := range []string{
		`jobs_total{outcome="ok"} 9`,
		`jobs_total{outcome="error"} 2`,
		"depth 3",
		"uptime_seconds 12.5",
		"steals_total 41",
		"# TYPE lat_seconds histogram",
		"lat_seconds_count 100",
		`lat_seconds_bucket{le="+Inf"} 100`,
		"# TYPE lat_seconds_p50 gauge",
		"# TYPE lat_seconds_p99 gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	parsed, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed[`jobs_total{outcome="ok"}`]; got != 9 {
		t.Fatalf("parsed ok counter = %v, want 9", got)
	}
	if got := parsed["lat_seconds_count"]; got != 100 {
		t.Fatalf("parsed histogram count = %v, want 100", got)
	}
	// The derived p50 gauge must be within a bucket width (6.25%) of
	// the true 50µs median, in scaled (seconds) units.
	p50 := parsed["lat_seconds_p50"]
	if p50 < 50e-6*(1-1.0/16) || p50 > 50e-6*(1+1.0/16) {
		t.Fatalf("derived p50 %.3g not within 1/16 of 50µs", p50)
	}

	// Counters() view: cumulative series only, raw sample units.
	cs := reg.Counters()
	if cs[`jobs_total{outcome="ok"}`] != 9 {
		t.Fatalf("Counters ok = %v", cs[`jobs_total{outcome="ok"}`])
	}
	if cs["lat_seconds_count"] != 100 {
		t.Fatalf("Counters histogram count = %v", cs["lat_seconds_count"])
	}
	if _, ok := cs["depth"]; ok {
		t.Fatal("Counters leaked a gauge series")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	reg.Counter("a_total", "a").Inc()
	reg.Gauge("b", "b").Set(1)
	reg.Histogram("c_seconds", "c", 1e-9).Observe(1)
	reg.CounterFunc("d_total", "d", func() float64 { return 1 })
	reg.GaugeFunc("e", "e", func() float64 { return 1 })
	reg.AddCollector(func() {})
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counters(); len(got) != 0 {
		t.Fatalf("nil registry Counters = %v", got)
	}
}

// FuzzParseProm: the scrape parser never panics, and every series it
// accepts holds ParseFloat of the last whitespace-separated field of
// the last line naming it.
func FuzzParseProm(f *testing.F) {
	for _, seed := range []string{
		"", "# HELP a_total a\n# TYPE a_total counter\na_total 3\n",
		"jobs_total{outcome=\"ok\"} 9\r\njobs_total{outcome=\"ok\"} 10\n",
		"lat_seconds_bucket{le=\"+Inf\"} 100\nlat_seconds_p50 5e-05\n",
		"x NaN\ny +Inf\nz -0\n", "no_value\n", "a 1 2\n", "a\t1\n", "  a   0x1p-3  \n",
		"a b 1e400\n", " 7\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, err := ParseProm(strings.NewReader(text))
		if err != nil {
			return
		}
		want := make(map[string]string)
		for _, line := range strings.Split(text, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			last := fields[len(fields)-1]
			want[strings.TrimSpace(strings.TrimSuffix(line, last))] = last
		}
		if len(got) != len(want) {
			t.Fatalf("%q: parsed %d series, want %d", text, len(got), len(want))
		}
		for name, field := range want {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				t.Fatalf("%q: accepted series %q with value field %q: %v", text, name, field, err)
			}
			g, ok := got[name]
			if !ok || math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("%q: series %q = %v (present %v), want %v", text, name, g, ok, v)
			}
		}
	})
}
