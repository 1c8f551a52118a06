// Package good shows the accepted goroutine join protocols.
package good

import "sync"

// WaitGrouped pairs Done with a Wait on the same WaitGroup object.
func WaitGrouped(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			println("work")
		}()
	}
	wg.Wait()
}

// ChannelSend pairs a send with a receive on the same channel object.
func ChannelSend() int {
	out := make(chan int, 1)
	go func() {
		out <- 42
	}()
	return <-out
}

// Closer pairs close with a receive.
func Closer() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		println("work")
	}()
	<-done
}

// Param spawns a literal that signals on its own parameter; the rule maps
// the parameter back to the argument ch and finds the range join.
func Param() int {
	ch := make(chan int)
	go func(out chan int) {
		defer close(out)
		produce(out)
	}(ch)
	total := 0
	for v := range ch {
		total += v
	}
	return total
}

func produce(ch chan int) {
	ch <- 1
}

// Selected joins through a select case on the signalled channel.
func Selected() {
	done := make(chan struct{})
	go func() {
		close(done)
	}()
	select {
	case <-done:
	}
}

// Handle returns the completion channel: the caller inherits the join duty.
func Handle() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		println("work")
	}()
	return done
}

// FieldToken signals on a struct field: the owning value outlives the
// spawner and carries the join handle with it.
type Worker struct {
	done chan struct{}
}

func (w *Worker) Start() {
	go func() {
		defer close(w.done)
		println("work")
	}()
}

// StartRun spawns a method through a literal that signals on the receiver's
// field: the token escapes with the owning value.
func (w *Worker) run() {
	println("work")
}

func (w *Worker) StartRun() {
	go func() {
		defer close(w.done)
		w.run()
	}()
}

// Daemon is a deliberate fire-and-forget, declared as such.
func Daemon() {
	//lint:ignore goroutine-join metrics flusher runs for the process lifetime by design
	go func() {
		println("background")
	}()
}
