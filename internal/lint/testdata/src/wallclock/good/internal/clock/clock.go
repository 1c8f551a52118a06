// Package clock stands in for internal/clock, the one package that reads
// the wall clock.
package clock

import "time"

// Now returns the wall-clock instant.
func Now() time.Time { return time.Now() }
