// Package cpuid reports whether the host can run the AVX2 kernels of
// the paper workloads (apsp's min-plus row, matmul's multiply-add row).
// The answer is read once, at start-up; there is no setting that
// overrides it. Off amd64 it is always false.
package cpuid

var avx2 = detect()

// AVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers across context switches.
func AVX2() bool { return avx2 }
