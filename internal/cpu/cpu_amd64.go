package cpu

// HasAVX reports that CPUID.1:ECX shows OSXSAVE and AVX (bits 27, 28) and
// XCR0 says the OS saves XMM and YMM state (bits 1, 2). Read-only: a package
// that wants to switch its kernel off in a test copies it into a variable of
// its own.
var HasAVX = cpuid1ECX()&osxsaveAVX == osxsaveAVX && xgetbv0()&6 == 6

const osxsaveAVX = 1<<27 | 1<<28

func cpuid1ECX() uint32
func xgetbv0() uint32
