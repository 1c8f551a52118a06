// Package bad starts goroutines outside the listed spawners. The rule reads
// only where a go statement sits, not what its goroutine does: a joined one
// is flagged like a leaking one, and which leaks is for leakcheck to find.
package bad

import "sync"

// Leak fires and forgets.
func Leak() {
	go func() { // want "outside the listed spawners"
		println("orphan")
	}()
}

// Joined waits for its goroutine, but is not a listed spawner.
func Joined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want "outside the listed spawners"
		defer wg.Done()
	}()
	wg.Wait()
}

// EarlyReturn leaks its worker on the error path: the result channel is
// unbuffered and the spawner returns before its receive. A proof that finds
// the receive somewhere in the body would pass it.
func EarlyReturn(fail bool) (int, bool) {
	out := make(chan int)
	go func() { out <- 1 }() // want "outside the listed spawners"
	if fail {
		return 0, false
	}
	return <-out, true
}

// Named spawns a named function.
func Named() {
	go println("named") // want "outside the listed spawners"
}

// Each has a listed spawner's name in the wrong package.
func Each(fn func()) {
	go fn() // want "outside the listed spawners"
}

// Edge has a listed method's name, but in the wrong package.
type Edge struct{}

// Run is not fednode's (*Edge).Run.
func (e *Edge) Run() {
	go func() {}() // want "outside the listed spawners"
}

// start sits in no function at all.
var start = func() {
	go func() {}() // want "outside the listed spawners"
}
