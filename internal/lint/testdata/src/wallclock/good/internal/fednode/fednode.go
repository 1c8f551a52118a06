// Package fednode stands in for the networked stack, one of the packages
// that may take time from internal/clock.
package fednode

import (
	"time"

	"wallclock/good/internal/clock"
)

// Elapsed is the wall time since start, read through the clock package.
func Elapsed(start time.Time) time.Duration {
	return clock.Now().Sub(start)
}
