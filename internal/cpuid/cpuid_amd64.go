package cpuid

// Feature bits, from the Intel SDM vol. 2A, CPUID and XGETBV.
const (
	ecx1OSXSAVE = 1 << 27     // CPUID.1:ECX, the OS enabled XGETBV
	ecx1AVX     = 1 << 28     // CPUID.1:ECX
	xcr0XMMYMM  = 1<<1 | 1<<2 // XCR0, the OS saves XMM and YMM state
	ebx7AVX2    = 1 << 5      // CPUID.(EAX=7,ECX=0):EBX
)

func detect() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&(ecx1OSXSAVE|ecx1AVX) != ecx1OSXSAVE|ecx1AVX {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xcr0XMMYMM != xcr0XMMYMM {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&ebx7AVX2 != 0
}

// cpuidex executes CPUID with EAX = leaf and ECX = subleaf.
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0; call it only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)
