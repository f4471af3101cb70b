// Package mandel implements a Mandelbrot-set renderer — the classic
// irregular data-parallel workload of the Eden and GpH literature: the
// per-row cost varies wildly (points inside the set iterate to the
// limit, points outside escape quickly), making static splits unbalance
// and dynamic distribution (work stealing, masterWorker) shine.
//
// Iterations are computed for real; the virtual cost is charged per
// actual iteration, so the irregularity is genuine.
//
// Row is the one kernel: every form (Program, EdenProgram) and the
// oracle (Render) go through it. It advances four adjacent pixels'
// orbits in lock step, so their floating-point chains overlap, and
// takes exactly each pixel's escape-time iterations, so counts and
// charges are those of a pixel-at-a-time loop.
package mandel

import (
	"parhask/internal/eden"
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/skel"
	"parhask/internal/strategies"
)

// IterCost is the virtual cost of one escape-time iteration.
const IterCost = 10

// AllocPerPoint is the heap allocated per pixel (list cell + boxed int).
const AllocPerPoint = 24

// Params frames a rendering.
type Params struct {
	Width, Height int
	CenterX       float64
	CenterY       float64
	Scale         float64 // width of the viewport in the complex plane
	MaxIter       int
}

// DefaultParams frames the classic seahorse-valley view.
func DefaultParams(w, h int) Params {
	return Params{
		Width: w, Height: h,
		CenterX: -0.74, CenterY: 0.12,
		Scale: 0.08, MaxIter: 512,
	}
}

// Ctx is the mutator-context slice the kernels need.
type Ctx interface {
	Burn(ns int64)
	Alloc(bytes int64)
}

// re is the real part of pixel column x.
func (p Params) re(x int) float64 {
	return p.CenterX + (float64(x)/float64(p.Width)-0.5)*p.Scale
}

// escape continues the orbit of c = cr + ci·i from z = zr + zi·i after
// n iterations and returns the escape-time count: the n at which |z|²
// first exceeds 4, or limit.
func escape(cr, ci, zr, zi float64, n, limit int) int {
	for ; n < limit; n++ {
		zr2, zi2 := zr*zr, zi*zi
		if zr2+zi2 > 4 {
			break
		}
		zr, zi = zr2-zi2+cr, 2*zr*zi+ci
	}
	return n
}

// Row computes the escape-time counts of one row, charging per actual
// iteration.
//
// Each orbit z ← z² + c is one dependent floating-point chain, so one
// pixel at a time is bound by the multiply-add latency. Row runs four
// adjacent pixels in lock step while none of them has escaped, then
// escape finishes each alone; the 0–3 pixels left at the end of the row
// run singly. Every pixel takes exactly the iterations of the one-chain
// loop, with the same expressions in the same order, so counts and
// charges are bit for bit those of a pixel-at-a-time render.
func Row(ctx Ctx, p Params, y int) []int32 {
	out := make([]int32, p.Width)
	var iters int64
	ci := p.CenterY + (float64(y)/float64(p.Height)-0.5)*p.Scale*float64(p.Height)/float64(p.Width)
	x := 0
	for ; x+4 <= p.Width; x += 4 {
		cr0, cr1, cr2, cr3 := p.re(x), p.re(x+1), p.re(x+2), p.re(x+3)
		var zr0, zi0, zr1, zi1, zr2, zi2, zr3, zi3 float64
		n := 0
		for ; n < p.MaxIter; n++ {
			zr0s, zi0s := zr0*zr0, zi0*zi0
			zr1s, zi1s := zr1*zr1, zi1*zi1
			zr2s, zi2s := zr2*zr2, zi2*zi2
			zr3s, zi3s := zr3*zr3, zi3*zi3
			if zr0s+zi0s > 4 || zr1s+zi1s > 4 || zr2s+zi2s > 4 || zr3s+zi3s > 4 {
				break
			}
			zr0, zi0 = zr0s-zi0s+cr0, 2*zr0*zi0+ci
			zr1, zi1 = zr1s-zi1s+cr1, 2*zr1*zi1+ci
			zr2, zi2 = zr2s-zi2s+cr2, 2*zr2*zi2+ci
			zr3, zi3 = zr3s-zi3s+cr3, 2*zr3*zi3+ci
		}
		for i, k := range [4]int{
			escape(cr0, ci, zr0, zi0, n, p.MaxIter),
			escape(cr1, ci, zr1, zi1, n, p.MaxIter),
			escape(cr2, ci, zr2, zi2, n, p.MaxIter),
			escape(cr3, ci, zr3, zi3, n, p.MaxIter),
		} {
			out[x+i] = int32(k)
			iters += int64(k)
		}
	}
	for ; x < p.Width; x++ {
		k := escape(p.re(x), ci, 0, 0, 0, p.MaxIter)
		out[x] = int32(k)
		iters += int64(k)
	}
	ctx.Burn(iters * IterCost)
	ctx.Alloc(int64(p.Width) * AllocPerPoint)
	return out
}

// Checksum folds an image into one comparable number.
func Checksum(rows [][]int32) int64 {
	var s int64
	for y, row := range rows {
		for x, v := range row {
			s += int64(v) * int64(x+3*y+1)
		}
	}
	return s
}

// Render computes the whole image sequentially (the oracle).
func Render(ctx Ctx, p Params) [][]int32 {
	rows := make([][]int32, p.Height)
	for y := range rows {
		rows[y] = Row(ctx, p, y)
	}
	return rows
}

// Program is the runtime-agnostic GpH rendering: one spark per row
// (parList over rows), forced and reassembled in index order. The same
// body runs on the virtual-time simulation and on the native
// work-stealing runtime — the irregular per-row cost is exactly what
// the dynamic load balancing is there to absorb.
func Program(p Params) exec.Program {
	return func(ctx exec.Ctx) graph.Value {
		ts := make([]*graph.Thunk, p.Height)
		for y := 0; y < p.Height; y++ {
			y := y
			ts[y] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value {
				return Row(c, p, y)
			})
		}
		strategies.ParListWHNF(ctx, ts)
		rows := make([][]int32, p.Height)
		for y, t := range ts {
			rows[y] = ctx.Force(t).([]int32)
		}
		return rows
	}
}

// GpHProgram is Program specialised to the simulated runtime, kept for
// the simulation call sites.
func GpHProgram(p Params) func(*rts.Ctx) graph.Value {
	prog := Program(p)
	return func(ctx *rts.Ctx) graph.Value { return prog(ctx) }
}

// rowResult pairs a row index with its pixels so completion-order
// results can be reassembled.
type rowResult struct {
	Y   int
	Pix []int32
}

// PackedSize implements eden.Sized.
func (r rowResult) PackedSize() int64 { return int64(4*len(r.Pix)) + 24 }

// DeepCopy implements eden.Sized.
func (r rowResult) DeepCopy() (graph.Value, error) {
	r.Pix = eden.CloneSlice(r.Pix)
	return r, nil
}

// EdenProgram renders with the masterWorker skeleton: rows are tasks,
// irregularly sized, dynamically balanced across worker processes —
// the textbook Eden use of the skeleton.
func EdenProgram(p Params, workers, prefetch int) pe.Program {
	return func(px pe.Ctx) graph.Value {
		tasks := make([]graph.Value, p.Height)
		for y := range tasks {
			tasks[y] = y
		}
		outs := skel.MasterWorker(px, "mandel", workers, prefetch,
			func(w pe.Ctx, task graph.Value) ([]graph.Value, graph.Value) {
				y := task.(int)
				return nil, rowResult{Y: y, Pix: Row(w, p, y)}
			}, tasks)
		rows := make([][]int32, p.Height)
		for _, o := range outs {
			r := o.(rowResult)
			rows[r.Y] = r.Pix
		}
		return rows
	}
}

// Equal compares two images.
func Equal(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for y := range a {
		if len(a[y]) != len(b[y]) {
			return false
		}
		for x := range a[y] {
			if a[y][x] != b[y][x] {
				return false
			}
		}
	}
	return true
}

// ASCII renders the image as characters for terminal display.
func ASCII(rows [][]int32, maxIter int) string {
	shades := []byte(" .:-=+*#%@")
	var b []byte
	for _, row := range rows {
		for _, v := range row {
			idx := int(v) * (len(shades) - 1) / maxIter
			b = append(b, shades[idx])
		}
		b = append(b, '\n')
	}
	return string(b)
}
