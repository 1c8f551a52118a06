//go:build !amd64

// Package cpu is the module's one CPU feature probe; off amd64 there is no
// hand-written kernel to select and nothing to probe.
package cpu

// HasAVX is false off amd64: the Go loops are the only implementation.
const HasAVX = false
