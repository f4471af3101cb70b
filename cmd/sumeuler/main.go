// Command sumeuler runs the paper's first benchmark — the sum of Euler
// totients φ(k) for k ≤ n — on any of the runtimes:
//
//	sumeuler -n 15000 -cores 8 -rts steal
//	sumeuler -n 15000 -runtime native -workers 8
//	sumeuler -n 15000 -runtime eden -cluster 3 -pes 2
//
// The flags and the report are internal/driver's; -h lists them.
package main

import "parhask/internal/driver"

func main() { driver.Main("sumeuler") }
