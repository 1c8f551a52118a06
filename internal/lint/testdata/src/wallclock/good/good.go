// Package good keeps the wall clock out of replayable code.
package good

import "time"

// Overran compares instants and does duration arithmetic: methods of
// time.Time are not the package's wall-clock functions.
func Overran(start, end time.Time, budget time.Duration) bool {
	return end.After(start.Add(2*budget)) || end.Sub(start) > budget/2
}

// Span reads the wall clock under a reasoned exception.
func Span() time.Time {
	//lint:ignore wallclock span timing is observability-only and never feeds results
	return time.Now()
}
