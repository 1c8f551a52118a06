//go:build race

package fednode

// raceEnabled reports a -race build. Its sync.Pool drops a random share of
// what is put back, so allocation gates over pooled buffers skip under it.
const raceEnabled = true
