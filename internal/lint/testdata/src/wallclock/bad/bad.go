// Package bad reads the wall clock outside internal/clock, directly and
// through it.
package bad

import (
	"time"

	"wallclock/bad/internal/clock" // want "only fednode, faultnet, felserve, metrics and experiments take time from internal/clock"
)

// now hands the wall clock around as a value.
var now = time.Now // want "time.Now outside internal/clock"

// Train was a root of the old rule's call graph; its retired annotation is
// now an unknown directive.
func Train() float64 {
	//lint:deterministic
	// want "unknown directive"
	return step()
}

func step() float64 {
	start := time.Now() // want "time.Now outside internal/clock"
	work()
	return time.Since(start).Seconds() // want "time.Since outside internal/clock"
}

func work() {
	time.Sleep(time.Millisecond) // want "time.Sleep outside internal/clock"
}

// Measure is reached from no root at all; the rule covers it anyway.
func Measure() time.Duration {
	start := now()
	return clock.Now().Sub(start)
}
