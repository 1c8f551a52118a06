// Package clock is where the networked stack takes time from. fednode's I/O
// deadlines and its dial and accept backoff, faultnet's injected delays and
// partition heals, and the chaos runner's restart backoff all ask Of for the
// clock of the transport, listener or connection they act on: the wall clock
// in production, faultnet's simulated clock under a fault plan. Nothing
// chooses between them; a value carries its clock or it runs on Real.
//
// It is the one library package that reads the wall clock. repolint's
// wallclock rule flags package time's Now, Sleep, AfterFunc and their kin
// anywhere else outside package main and tests, and lets only fednode,
// faultnet, felserve, metrics, experiments and the tests' leakcheck import
// this package, so replay-pinned code (core, grouping, sampling, secagg)
// reads no clock.
package clock

import "time"

// Clock is a source of time: the current instant, a pause, and a call after a
// delay.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock; d <= 0 returns at once.
	Sleep(d time.Duration)
	// AfterFunc calls f once d has elapsed on this clock. f must return
	// promptly: a simulated clock runs it on the goroutine that moves time.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call.
type Timer interface {
	// Stop cancels the call; it reports false if the call already ran or was
	// stopped.
	Stop() bool
}

// Real is the wall clock.
var Real Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                            { return time.Now() }
func (wall) Sleep(d time.Duration)                     { time.Sleep(d) }
func (wall) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Of returns the clock x carries — x has a Clock() Clock method, as faultnet's
// networks, listeners and connections and fednode's metered connections do —
// or Real when it carries none.
func Of(x any) Clock {
	if c, ok := x.(interface{ Clock() Clock }); ok {
		return c.Clock()
	}
	return Real
}
