//go:build !amd64

package grouping

// hasAVX is false off amd64: argminScan's Go loop scores every block.
var hasAVX = false

func scanFilter(rows *[4]float64, gc *float64, classes, blocks int, acSum, acSumSq, bestSum, bestSumSq float64) int {
	panic("grouping: scanFilter has no implementation on this architecture")
}
