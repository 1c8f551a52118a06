//go:build !amd64

package cpu

// HasAVX is false off amd64: there is no hand-written kernel to select and
// nothing to probe, so the Go loops are the only implementation.
const HasAVX = false
