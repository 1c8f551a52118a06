// Package bad spawns goroutines that violate the token join protocol.
package bad

import "sync"

// Leak fires and forgets: no signal, no join.
func Leak() {
	go func() { // want "never signals completion"
		println("orphan")
	}()
}

// NoJoin signals through the WaitGroup but the spawner never waits on it.
func NoJoin() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want "spawner never calls wg.Wait()"
		defer wg.Done()
		println("work")
	}()
}

// NoSignal joins a channel the goroutine never touches: the goroutine body
// has no signal, so the receive below proves nothing about it.
func NoSignal() {
	done := make(chan struct{})
	go func() { // want "never signals completion"
		println("work")
	}()
	<-done
}

// WrongToken signals on one channel and waits on another; per-token
// resolution catches what a "some receive exists" heuristic would miss.
func WrongToken() {
	done := make(chan struct{})
	other := make(chan struct{}, 1)
	go func() { // want "spawner never receives from, ranges over, or selects on it"
		close(done)
	}()
	other <- struct{}{}
	<-other
}

// NamedNoConsumer spawns a named producer, and nothing drains the channel.
func NamedNoConsumer() {
	ch := make(chan int)
	go produce(ch) // want "spawn a func literal"
	println("not consuming")
}

func produce(ch chan int) {
	ch <- 1
	close(ch)
}

// Named spawns a named function that closes only a channel of its own: no
// spawner can join it, whatever the spawner waits on.
func Named() {
	done := make(chan struct{})
	go leaky() // want "spawn a func literal"
	close(done)
	<-done
}

func leaky() {
	own := make(chan struct{})
	close(own)
}

// FuncValue spawns a function value that signals nothing while the spawner
// waits on an unrelated channel.
func FuncValue(f func()) {
	done := make(chan struct{}, 1)
	go f() // want "spawn a func literal"
	done <- struct{}{}
	<-done
}

// LocalToken closes a channel the literal made itself: the spawner cannot
// name it, let alone join it.
func LocalToken() {
	done := make(chan struct{}, 1)
	go func() { // want "channel own but the spawner never"
		own := make(chan struct{})
		close(own)
	}()
	done <- struct{}{}
	<-done
}

// ParamNoJoin signals on its parameter, which maps back to ch; the spawner
// waits on a different channel.
func ParamNoJoin() {
	ch := make(chan int, 1)
	other := make(chan int, 1)
	go func(out chan int) { // want "channel ch but the spawner never receives"
		out <- 1
	}(ch)
	other <- 1
	<-other
}

// Unresolved sends on a channel returned by a call: the token has no object
// to join, and a receive elsewhere in the spawner does not vouch for it.
func Unresolved(chans func() chan int) {
	ch := make(chan int, 1)
	go func() { // want "cannot resolve"
		chans() <- 1
	}()
	ch <- 1
	<-ch
}
