package mandel

import (
	"fmt"
	"strings"
	"testing"

	"parhask/internal/eden"
	"parhask/internal/eden/edentest"
	"parhask/internal/gph"
	"parhask/internal/graph"
)

type nopCtx struct{ burned, alloced int64 }

func (n *nopCtx) Burn(ns int64) { n.burned += ns }
func (n *nopCtx) Alloc(b int64) { n.alloced += b }

func oracle(p Params) [][]int32 {
	return Render(&nopCtx{}, p)
}

// rowScalar is the pixel-at-a-time escape-time loop, each orbit one
// dependent chain: the reference Row must match count for count and
// charge for charge. It shares no code with Row on purpose.
func rowScalar(ctx Ctx, p Params, y int) []int32 {
	out := make([]int32, p.Width)
	var iters int64
	ci := p.CenterY + (float64(y)/float64(p.Height)-0.5)*p.Scale*float64(p.Height)/float64(p.Width)
	for x := 0; x < p.Width; x++ {
		cr := p.CenterX + (float64(x)/float64(p.Width)-0.5)*p.Scale
		zr, zi := 0.0, 0.0
		n := 0
		for ; n < p.MaxIter; n++ {
			zr2, zi2 := zr*zr, zi*zi
			if zr2+zi2 > 4 {
				break
			}
			zr, zi = zr2-zi2+cr, 2*zr*zi+ci
			iters++
		}
		out[x] = int32(n)
	}
	ctx.Burn(iters * IterCost)
	ctx.Alloc(int64(p.Width) * AllocPerPoint)
	return out
}

func TestRowMatchesScalar(t *testing.T) {
	// Row's four lanes must give every pixel exactly the scalar loop's
	// count and charge exactly its Burn: widths 1–9 cover every tail
	// length, and the two extreme viewports make whole groups run to
	// MaxIter or escape at once.
	type tc struct {
		name string
		p    Params
	}
	cases := []tc{
		{"serve 128x96", DefaultParams(128, 96)},
		{"serve 96x72", DefaultParams(96, 72)},
	}
	for w := 1; w <= 9; w++ {
		cases = append(cases, tc{fmt.Sprintf("width %d", w), DefaultParams(w, 5)})
	}
	inside := Params{Width: 37, Height: 9, CenterX: -0.1, CenterY: 0, Scale: 0.05, MaxIter: 300}
	outside := Params{Width: 37, Height: 9, CenterX: 3, CenterY: 3, Scale: 0.5, MaxIter: 300}
	cases = append(cases, tc{"inside the set", inside}, tc{"outside the set", outside})
	for _, limit := range []int{0, 1} {
		p := DefaultParams(23, 7)
		p.MaxIter = limit
		cases = append(cases, tc{fmt.Sprintf("MaxIter %d", limit), p})
	}
	for _, c := range cases {
		for y := 0; y < c.p.Height; y++ {
			got, want := &nopCtx{}, &nopCtx{}
			a, b := Row(got, c.p, y), rowScalar(want, c.p, y)
			if len(a) != len(b) {
				t.Fatalf("%s row %d: %d pixels, want %d", c.name, y, len(a), len(b))
			}
			for x := range a {
				if a[x] != b[x] {
					t.Fatalf("%s pixel (%d, %d): %d iterations, want %d", c.name, x, y, a[x], b[x])
				}
			}
			if *got != *want {
				t.Fatalf("%s row %d: charged %+v, want %+v", c.name, y, *got, *want)
			}
		}
	}
	// The extreme viewports are what they claim to be.
	for _, row := range oracle(inside) {
		for _, v := range row {
			if v != int32(inside.MaxIter) {
				t.Fatalf("inside viewport has a pixel escaping at %d", v)
			}
		}
	}
	for _, row := range oracle(outside) {
		for _, v := range row {
			if v > 2 {
				t.Fatalf("outside viewport has a pixel taking %d iterations", v)
			}
		}
	}
}

func TestChargesPinned(t *testing.T) {
	// The simulator charges Burn per real iteration, so a kernel edit
	// that drifts one iteration moves every simulated mandel run. These
	// are the scalar loop's charges and checksums.
	for _, c := range []struct {
		w, h                  int
		burn, alloc, checksum int64
	}{
		{128, 96, 38739340, 294912, 828147089},
		{96, 72, 21872290, 165888, 349553436},
		{97, 71, 21704610, 165288, 346075003},
	} {
		ctx := &nopCtx{}
		sum := Checksum(Render(ctx, DefaultParams(c.w, c.h)))
		if ctx.burned != c.burn || ctx.alloced != c.alloc || sum != c.checksum {
			t.Errorf("Render %dx%d: Burn %d Alloc %d Checksum %d, want %d %d %d",
				c.w, c.h, ctx.burned, ctx.alloced, sum, c.burn, c.alloc, c.checksum)
		}
	}
}

func TestRowDeterministic(t *testing.T) {
	p := DefaultParams(64, 48)
	a := Row(&nopCtx{}, p, 10)
	b := Row(&nopCtx{}, p, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("row not deterministic")
		}
	}
}

func TestIrregularRows(t *testing.T) {
	// The viewport must contain both fast-escaping and max-iter points,
	// otherwise the workload is not irregular.
	p := DefaultParams(96, 64)
	img := oracle(p)
	var mn, mx int32 = 1 << 30, 0
	for _, row := range img {
		for _, v := range row {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
	}
	if mx != int32(p.MaxIter) {
		t.Fatalf("max iter = %d, want %d (set interior present)", mx, p.MaxIter)
	}
	if mn >= int32(p.MaxIter)/4 {
		t.Fatalf("min iter = %d; no fast-escaping points", mn)
	}
}

func TestGpHMatchesOracle(t *testing.T) {
	p := DefaultParams(64, 48)
	want := oracle(p)
	res, err := gph.Run(gph.WorkStealingConfig(4), GpHProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(res.Value.([][]int32), want) {
		t.Fatal("GpH image differs from oracle")
	}
}

func TestEdenMasterWorkerMatchesOracle(t *testing.T) {
	p := DefaultParams(64, 48)
	want := oracle(p)
	cfg := eden.NewConfig(5, 4)
	res, err := eden.Run(cfg, EdenProgram(p, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(res.Value.([][]int32), want) {
		t.Fatal("Eden image differs from oracle")
	}
}

func TestDynamicBeatsStaticOnIrregularLoad(t *testing.T) {
	// Compare GpH work stealing (dynamic) against the pushing scheduler
	// on this highly irregular workload.
	p := DefaultParams(128, 96)
	steal, err := gph.Run(gph.WorkStealingConfig(8), GpHProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	push, err := gph.Run(gph.ImprovedSync(8), GpHProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	if steal.Elapsed >= push.Elapsed {
		t.Fatalf("stealing (%d) not faster than pushing (%d) on irregular rows",
			steal.Elapsed, push.Elapsed)
	}
}

func TestSpeedup(t *testing.T) {
	p := DefaultParams(128, 96)
	r1, err := gph.Run(gph.WorkStealingConfig(1), GpHProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := gph.Run(gph.WorkStealingConfig(8), GpHProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	if sp := float64(r1.Elapsed) / float64(r8.Elapsed); sp < 4 {
		t.Fatalf("speedup = %.2f, want >= 4", sp)
	}
}

func TestChecksumSensitive(t *testing.T) {
	p := DefaultParams(32, 24)
	img := oracle(p)
	c1 := Checksum(img)
	img[5][7]++
	if Checksum(img) == c1 {
		t.Fatal("checksum insensitive")
	}
}

func TestASCIIShape(t *testing.T) {
	p := DefaultParams(40, 12)
	out := ASCII(oracle(p), p.MaxIter)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 || len(lines[0]) != 40 {
		t.Fatalf("ascii shape %dx%d", len(lines), len(lines[0]))
	}
	if !strings.Contains(out, "@") || !strings.Contains(out, " ") {
		t.Fatal("ascii lacks contrast")
	}
}

// The Eden result packet's copy shares no pixels with its source.
func TestMessageCopiesShareNothing(t *testing.T) {
	edentest.CheckCopies(t, []edentest.CopyCase{
		{Name: "rowResult", Make: func() graph.Value { return rowResult{Y: 3, Pix: []int32{0, 9, 255}} }},
		{Name: "rowResult with no pixels", Make: func() graph.Value { return rowResult{Y: 1} }},
	})
}
