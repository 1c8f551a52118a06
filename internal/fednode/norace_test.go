//go:build !race

package fednode

const raceEnabled = false
