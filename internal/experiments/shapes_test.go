package experiments

import (
	"strings"
	"testing"

	"parhask/internal/stats"
	"parhask/internal/trace"
)

// The CheckShape methods are the guard rails of the reproduction; they
// must actually detect violations, not just pass on good data.

func TestFig1CheckShapeDetectsRegressions(t *testing.T) {
	good := &Fig1{Params: Quick(), Rows: []Fig1Row{
		{Name: "plain", Elapsed: 300},
		{Name: "big", Elapsed: 280},
		{Name: "sync", Elapsed: 260},
		{Name: "steal", Elapsed: 240},
		{Name: "eden", Elapsed: 245},
	}}
	if bad := good.CheckShape(); len(bad) != 0 {
		t.Fatalf("good data flagged: %v", bad)
	}

	worse := &Fig1{Params: Quick(), Rows: []Fig1Row{
		{Name: "plain", Elapsed: 300},
		{Name: "big", Elapsed: 340}, // optimisation made it slower
		{Name: "sync", Elapsed: 260},
		{Name: "steal", Elapsed: 240},
		{Name: "eden", Elapsed: 245},
	}}
	if bad := worse.CheckShape(); len(bad) == 0 {
		t.Fatal("regression not detected")
	}

	slowEden := &Fig1{Params: Quick(), Rows: []Fig1Row{
		{Name: "plain", Elapsed: 300},
		{Name: "big", Elapsed: 280},
		{Name: "sync", Elapsed: 260},
		{Name: "steal", Elapsed: 240},
		{Name: "eden", Elapsed: 400}, // Eden far off the best GpH
	}}
	if bad := slowEden.CheckShape(); len(bad) == 0 {
		t.Fatal("slow Eden not detected")
	}
}

func TestFig3CheckShapeDetectsDivergence(t *testing.T) {
	mkSeries := func(name string, t16 int64) *stats.Series {
		return &stats.Series{Name: name, Times: map[int]int64{1: 1600, 16: t16}}
	}
	p := Quick()
	p.CoreCounts = []int{1, 16}
	good := &Fig3{Params: p,
		SumEuler: []*stats.Series{
			mkSeries("plain", 200), mkSeries("big", 130), mkSeries("sync", 125),
			mkSeries("steal", 115), mkSeries("eden", 114),
		},
		MatMul: []*stats.Series{
			mkSeries("plain", 700), mkSeries("big", 760), mkSeries("sync", 760),
			mkSeries("steal", 130), mkSeries("eden", 120),
		},
	}
	if bad := good.CheckShape(); len(bad) != 0 {
		t.Fatalf("good data flagged: %v", bad)
	}
	// Break the "similar performance" claim: Eden 3x the stealing time.
	good.SumEuler[4] = mkSeries("eden", 345)
	if bad := good.CheckShape(); len(bad) == 0 {
		t.Fatal("steal-vs-eden divergence not detected")
	}
}

func TestFig5CheckShapeDetectsLazyScaling(t *testing.T) {
	mk := func(name string, t16 int64) *stats.Series {
		return &stats.Series{Name: name, Times: map[int]int64{1: 1000, 16: t16}}
	}
	p := Quick()
	p.CoreCounts = []int{1, 16}
	good := &Fig5{Params: p, Series: []*stats.Series{
		mk("lazy", 690), mk("eager", 680),
		mk("steal-lazy", 1100), mk("steal-eager", 550),
		mk("eden", 110),
	}}
	if bad := good.CheckShape(); len(bad) != 0 {
		t.Fatalf("good data flagged: %v", bad)
	}
	// If lazy black-holing suddenly scaled fine, the check must complain
	// (that would mean the duplication pathology disappeared).
	good.Series[2] = mk("steal-lazy", 120)
	if bad := good.CheckShape(); len(bad) == 0 {
		t.Fatal("healthy lazy scaling not flagged as a shape change")
	}
}

func TestFig2CheckShapeDetectsLowUtilisation(t *testing.T) {
	mkTrace := func(runFrac float64) *trace.Log {
		l := trace.NewLog()
		a := l.NewAgent("cap0")
		a.Set(0, trace.Run)
		a.Set(int64(runFrac*1000), trace.Idle)
		l.Close(1000)
		return l
	}
	f := &Fig2{Params: Quick(), Entries: []TraceEntry{
		{Name: "plain", Trace: mkTrace(0.70)},
		{Name: "big", Trace: mkTrace(0.80)},
		{Name: "sync", Trace: mkTrace(0.85)},
		{Name: "steal", Trace: mkTrace(0.95)},
		{Name: "eden", Trace: mkTrace(0.90)},
	}}
	if bad := f.CheckShape(); len(bad) != 0 {
		t.Fatalf("good data flagged: %v", bad)
	}
	f.Entries[3].Trace = mkTrace(0.60) // stealing with idle periods
	if bad := f.CheckShape(); len(bad) == 0 {
		t.Fatal("low stealing utilisation not detected")
	}
}

func TestModelsCheckShapeDetectsOutlier(t *testing.T) {
	m := &Models{Params: Quick(), Rows: []ModelRow{
		{Name: "steal", Elapsed: 100}, {Name: "pargc", Elapsed: 95},
		{Name: "localheaps", Elapsed: 97}, {Name: "eden", Elapsed: 115},
	}}
	if bad := m.CheckShape(); len(bad) != 0 {
		t.Fatalf("good data flagged: %v", bad)
	}
	m.Rows[3].Elapsed = 300 // Eden 3x the best
	if bad := m.CheckShape(); len(bad) == 0 {
		t.Fatal("outlier organisation not detected")
	}
}

func TestLatencyCheckShapeDetectsFlatRing(t *testing.T) {
	ls := &LatencyStudy{Params: Quick(), Rows: []LatencyRow{
		{Name: "shm", APSPRing: 100, SumEulerMW: 1000},
		{Name: "cluster", APSPRing: 300, SumEulerMW: 1010},
	}}
	if bad := ls.CheckShape(); len(bad) != 0 {
		t.Fatalf("good data flagged: %v", bad)
	}
	ls.Rows[1].APSPRing = 105 // fine-grained program immune to latency?!
	if bad := ls.CheckShape(); len(bad) == 0 {
		t.Fatal("latency-immune ring not detected")
	}
}

func TestRenderersMentionViolations(t *testing.T) {
	f := &Fig1{Params: Quick(), Rows: []Fig1Row{
		{Name: "plain", Elapsed: 100},
		{Name: "big", Elapsed: 200},
		{Name: "sync", Elapsed: 300},
		{Name: "steal", Elapsed: 400},
		{Name: "eden", Elapsed: 500},
	}}
	if !strings.Contains(f.String(), "SHAPE VIOLATIONS") {
		t.Fatal("String() must surface violations")
	}
}
