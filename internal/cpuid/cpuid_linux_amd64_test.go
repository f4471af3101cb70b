package cpuid

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2MatchesProcCPUInfo: the probe agrees with the kernel's view
// of the boot CPU, which lists avx2 only when the CPU has it and the
// kernel saves YMM state.
func TestAVX2MatchesProcCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := slices.Contains(strings.Fields(flags), "avx2")
		if got := AVX2(); got != want {
			t.Fatalf("AVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
