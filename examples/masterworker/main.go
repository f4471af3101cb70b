// Master-worker example: an irregular, dynamically growing bag of tasks
// processed by the masterWorker skeleton — here an adaptive numerical
// integration where intervals that look rough are split into subtasks
// at runtime (the paper notes the skeleton supports exactly this kind
// of backtracking/branch-and-bound workload).
//
//	go run ./examples/masterworker
package main

import (
	"fmt"
	"log"
	"math"

	"parhask/internal/eden"
	"parhask/internal/graph"
	"parhask/internal/pe"
	"parhask/internal/skel"
	"parhask/internal/trace"
)

// interval is one integration task.
type interval struct {
	Lo, Hi float64
}

// PackedSize implements eden.Sized.
func (iv interval) PackedSize() int64 { return 32 }

// DeepCopy implements eden.Sized.
func (iv interval) DeepCopy() (graph.Value, error) { return iv, nil }

// f is the integrand: nasty around x=0.1 so adaptive refinement kicks in.
func f(x float64) float64 { return math.Sin(1/(x+0.1)) + 1 }

// simpson computes the Simpson estimate over [lo, hi].
func simpson(lo, hi float64) float64 {
	m := (lo + hi) / 2
	return (hi - lo) / 6 * (f(lo) + 4*f(m) + f(hi))
}

func main() {
	const cores = 8
	cfg := eden.NewConfig(cores, cores)
	res, err := eden.Run(cfg, func(p pe.Ctx) graph.Value {
		initial := make([]graph.Value, 16)
		for i := range initial {
			initial[i] = interval{Lo: float64(i) / 16, Hi: float64(i+1) / 16}
		}
		parts := skel.MasterWorker(p, "quad", cores-1, 2,
			func(w pe.Ctx, task graph.Value) ([]graph.Value, graph.Value) {
				iv := task.(interval)
				w.Alloc(4 * 1024)
				w.Burn(150_000) // per-estimate cost
				whole := simpson(iv.Lo, iv.Hi)
				m := (iv.Lo + iv.Hi) / 2
				halves := simpson(iv.Lo, m) + simpson(m, iv.Hi)
				if math.Abs(whole-halves) > 1e-7 && iv.Hi-iv.Lo > 1e-5 {
					// Too rough: split into two new tasks, contribute nothing.
					return []graph.Value{interval{iv.Lo, m}, interval{m, iv.Hi}}, 0.0
				}
				return nil, halves
			}, initial)
		total := 0.0
		for _, v := range parts {
			total += v.(float64)
		}
		return total
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive integral over [0,1] = %.8f\n", res.Value)
	fmt.Printf("virtual runtime = %s; %d tasks processed across %d workers; %d messages\n",
		trace.FmtDur(res.Elapsed), res.Stats.Messages/2, cores-1, res.Stats.Messages)
	fmt.Print(res.Trace.Render(72))
}
