package tensor

// hasAVX selects accumRows' vector row update. It is what the program can
// observe and nothing a user can set: CPUID.1:ECX reports OSXSAVE and AVX
// (bits 27, 28) and XCR0 says the OS saves XMM and YMM state (bits 1, 2).
var hasAVX = cpuid1ECX()&osxsaveAVX == osxsaveAVX && xgetbv0()&6 == 6

const osxsaveAVX = 1<<27 | 1<<28

// quadUpdate is accumRows' four-term row update over n contiguous columns
// (quad_amd64.s); callers must have checked hasAVX.
//
//go:noescape
func quadUpdate(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

func cpuid1ECX() uint32
func xgetbv0() uint32
