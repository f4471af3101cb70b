// Package parhask is a Go reproduction of the runtime systems studied in
// J. Berthold, S. Marlow, K. Hammond and A. D. Al Zain, "Comparing and
// Optimising Parallel Haskell Implementations for Multicore Machines"
// (ICPP 2009).
//
// It implements, on a deterministic discrete-event simulation of a
// multicore machine, the two parallel Haskell runtime models the paper
// compares:
//
//   - GpH on a shared heap: capabilities, par-created sparks,
//     work pushing (GHC 6.8.x) or Chase–Lev work stealing,
//     stop-the-world GC with polling or wakeup barriers, and lazy or
//     eager black-holing (internal/gph);
//   - Eden on distributed heaps: processing elements with independent
//     local GC, typed channels with normal-form-before-send semantics,
//     streams, and algorithmic skeletons — parMap, parMapReduce,
//     masterWorker, ring, torus (internal/eden, internal/skel).
//
// The three benchmark programs of the paper's evaluation (sumEuler,
// blockwise/Cannon matrix multiplication, ring-pipelined all-pairs
// shortest paths) live in internal/workloads; the experiment drivers
// that regenerate every figure and table live in internal/experiments
// and are runnable via cmd/benchall.
//
// This package holds no code of its own: its tests are the runnable
// examples (example_test.go) and the simulator's figure and ablation
// benchmarks (bench_test.go), both written against the internal
// packages. See the examples/ directory for runnable programs,
// DESIGN.md for the system inventory and the paper-to-module map, and
// EXPERIMENTS.md for measured-vs-paper results.
package parhask
