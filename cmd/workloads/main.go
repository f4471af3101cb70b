// Command workloads runs any entry of the workload table
// (internal/workloads) on any of the runtimes, chosen with -run:
//
//	workloads -run parfib -n 30 -cutoff 18 -rts steal -cores 8
//	workloads -run queens -n 12 -rts eden
//	workloads -run apsp -runtime eden -cluster 2 -n 48
//
// The flags and the report are internal/driver's; -run X -h lists them.
package main

import "parhask/internal/driver"

func main() { driver.Main("") }
