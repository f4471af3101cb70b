// Command apsp runs the paper's third benchmark — all-pairs shortest
// paths, a GpH thunk lattice or an Eden process ring — on any of the
// runtimes:
//
//	apsp -n 400 -cores 8 -rts eden              # ring of 8 processes
//	apsp -n 400 -cores 8 -rts steal [-eager]    # lazy black-holing crawls
//	apsp -n 400 -runtime native -workers 8
//
// The flags and the report are internal/driver's; -h lists them.
package main

import "parhask/internal/driver"

func main() { driver.Main("apsp") }
