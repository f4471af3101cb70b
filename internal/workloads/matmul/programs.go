package matmul

import (
	"fmt"

	"parhask/internal/eden"
	"parhask/internal/exec"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/rts"
	"parhask/internal/skel"
	"parhask/internal/strategies"
)

// BlockProgram is the runtime-agnostic GpH block parallelisation:
// regular blocks of the result matrix are turned into sparks; the block
// size (spark granularity) is tunable. The main thread then forces every
// block and assembles the result. It runs unchanged on the virtual-time
// simulation and on the native runtime.
func BlockProgram(a, b Mat, blockSize int, mulAddCost int64) exec.Program {
	n := len(a)
	q := blockDim(n, blockSize)
	return func(ctx exec.Ctx) graph.Value {
		ctx.Alloc(2 * Bytes(n)) // the input matrices are built on the heap
		blocks := make([]*graph.Thunk, 0, q*q)
		for bi := 0; bi < q; bi++ {
			for bj := 0; bj < q; bj++ {
				r0, c0 := bi*blockSize, bj*blockSize
				blocks = append(blocks, exec.NewThunk(ctx, func(c exec.Ctx) graph.Value {
					return MulRange(c, mulAddCost, a, b, r0, r0+blockSize, c0, c0+blockSize)
				}))
			}
		}
		strategies.ParListWHNF(ctx, blocks)
		out := New(n, n)
		for k, t := range blocks {
			blk := ctx.Force(t).(Mat)
			r0, c0 := (k/q)*blockSize, (k%q)*blockSize
			for i := range blk {
				copy(out[r0+i][c0:c0+blockSize], blk[i])
			}
		}
		return out
	}
}

// GpHBlockProgram is BlockProgram specialised to the simulated runtime,
// kept for the simulation call sites.
func GpHBlockProgram(a, b Mat, blockSize int, mulAddCost int64) func(*rts.Ctx) graph.Value {
	p := BlockProgram(a, b, blockSize, mulAddCost)
	return func(ctx *rts.Ctx) graph.Value { return p(ctx) }
}

// RowProgram is the runtime-agnostic row-parallel version the paper
// compares against: one spark per result row; each row depends on the
// whole second input matrix.
func RowProgram(a, b Mat, mulAddCost int64) exec.Program {
	n := len(a)
	return func(ctx exec.Ctx) graph.Value {
		ctx.Alloc(2 * Bytes(n))
		rows := make([]*graph.Thunk, n)
		for i := 0; i < n; i++ {
			i := i
			rows[i] = exec.NewThunk(ctx, func(c exec.Ctx) graph.Value {
				return MulRange(c, mulAddCost, a, b, i, i+1, 0, n)
			})
		}
		strategies.ParListWHNF(ctx, rows)
		out := make(Mat, n)
		for i, t := range rows {
			out[i] = ctx.Force(t).(Mat)[0]
		}
		return out
	}
}

// GpHRowProgram is RowProgram specialised to the simulated runtime.
func GpHRowProgram(a, b Mat, mulAddCost int64) func(*rts.Ctx) graph.Value {
	p := RowProgram(a, b, mulAddCost)
	return func(ctx *rts.Ctx) graph.Value { return p(ctx) }
}

// PackedSize implements eden.Sized: a Mat packs exactly like the
// underlying [][]float64. Without this the named type fell through to
// SizeOfChecked's old one-word default, so every block a torus node
// returned was charged 16 bytes while the copier shipped the whole
// matrix — the packing model and the transport disagreed by megabytes.
func (m Mat) PackedSize() int64 { return eden.SizeOf([][]float64(m)) }

// DeepCopy implements eden.Sized.
func (m Mat) DeepCopy() (graph.Value, error) { return eden.CloneRows(m), nil }

// cannonInput is the initial payload of one torus node: its (already
// skew-aligned) blocks of A and B.
type cannonInput struct {
	A, B Mat
}

// PackedSize implements eden.Sized: an 8-byte wire header plus the two
// blocks at their own packed sizes.
func (ci cannonInput) PackedSize() int64 {
	return 8 + eden.SizeOf([][]float64(ci.A)) + eden.SizeOf([][]float64(ci.B))
}

// DeepCopy implements eden.Sized.
func (ci cannonInput) DeepCopy() (graph.Value, error) {
	return cannonInput{A: eden.CloneRows(ci.A), B: eden.CloneRows(ci.B)}, nil
}

// blockMsg is one shifted block in Cannon's round exchange.
type blockMsg struct{ M Mat }

// PackedSize implements eden.Sized.
func (bm blockMsg) PackedSize() int64 { return eden.SizeOf([][]float64(bm.M)) }

// DeepCopy implements eden.Sized.
func (bm blockMsg) DeepCopy() (graph.Value, error) { return blockMsg{M: eden.CloneRows(bm.M)}, nil }

// EdenCannonProgram multiplies on a q×q process torus with Cannon's
// algorithm: each node starts with skew-aligned blocks A(i,(j+i) mod q)
// and B((i+j) mod q, j), and in q rounds multiplies its current blocks
// into its accumulator, shifting A left and B up between rounds.
// Communication is thereby reduced to a minimum (§V). Each node's
// input blocks are Block views of a and b, so the send's deep copy is
// the only copy of an input block. A node never writes its A or B
// blocks (MulAddInto writes only the accumulator), which keeps the views
// safe on the simulator, where a message is passed by reference.
func EdenCannonProgram(a, b Mat, q int, mulAddCost int64) pe.Program {
	n := len(a)
	if q <= 0 || n%q != 0 {
		panic(fmt.Sprintf("matmul: torus dimension %d must divide matrix size %d", q, n))
	}
	bs := n / q
	return func(p pe.Ctx) graph.Value {
		inputs := make([][]graph.Value, q)
		for i := 0; i < q; i++ {
			inputs[i] = make([]graph.Value, q)
			for j := 0; j < q; j++ {
				aj := (j + i) % q // initial skew
				bi := (i + j) % q
				inputs[i][j] = cannonInput{
					A: Block(a, i*bs, (i+1)*bs, aj*bs, (aj+1)*bs),
					B: Block(b, bi*bs, (bi+1)*bs, j*bs, (j+1)*bs),
				}
			}
		}
		outs := skel.Torus(p, "cannon", q, func(w pe.Ctx, i, j int, input graph.Value,
			fromRight pe.StreamIn, toLeft pe.StreamOut,
			fromBelow pe.StreamIn, toUp pe.StreamOut) graph.Value {
			in := input.(cannonInput)
			w.AddResident(3 * int64(bs) * int64(bs) * 8)
			ab, bb := in.A, in.B
			acc := New(bs, bs)
			for round := 0; round < q; round++ {
				if round > 0 {
					// Shift: send current blocks on, receive the next.
					w.StreamSend(toLeft, blockMsg{M: ab})
					w.StreamSend(toUp, blockMsg{M: bb})
					av, ok1 := w.StreamRecv(fromRight)
					bv, ok2 := w.StreamRecv(fromBelow)
					if !ok1 || !ok2 {
						panic("cannon: neighbour stream closed early")
					}
					ab, bb = av.(blockMsg).M, bv.(blockMsg).M
				}
				MulAddInto(w, mulAddCost, acc, ab, bb)
			}
			w.StreamClose(toLeft)
			w.StreamClose(toUp)
			// Drain the neighbours' closes so every message is consumed.
			if _, ok := w.StreamRecv(fromRight); ok {
				panic("cannon: unexpected extra block from right")
			}
			if _, ok := w.StreamRecv(fromBelow); ok {
				panic("cannon: unexpected extra block from below")
			}
			return acc
		}, inputs)

		out := New(n, n)
		for i := 0; i < q; i++ {
			for j := 0; j < q; j++ {
				blk := outs[i][j].(Mat)
				for r := range blk {
					copy(out[i*bs+r][j*bs:(j+1)*bs], blk[r])
				}
			}
		}
		return out
	}
}
