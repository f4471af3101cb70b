//go:build !amd64

package cpuid

func detect() bool { return false }
