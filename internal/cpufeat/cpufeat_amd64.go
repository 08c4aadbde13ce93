package cpufeat

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers.
var AVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS has enabled
// the YMM state (CPUID.7:EBX[5], CPUID.1:ECX OSXSAVE and AVX, XCR0
// bits 1–2).
func cpuHasAVX2() bool
