// Command matmul runs the paper's second benchmark — dense matrix
// multiplication, GpH result blocks or an Eden Cannon torus — on any of
// the runtimes:
//
//	matmul -n 396 -cores 8 -rts steal -block 33
//	matmul -n 396 -cores 8 -rts eden -q 4 -pes 17    # Fig. 4 e)
//	matmul -runtime eden -cluster 4 -q 2 -pes 2
//
// The flags and the report are internal/driver's; -h lists them.
package main

import "parhask/internal/driver"

func main() { driver.Main("matmul") }
