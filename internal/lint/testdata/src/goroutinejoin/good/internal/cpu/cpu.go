// Package cpu holds a listed spawner, a function.
package cpu

import "sync"

// fan runs fn n times, each on its own goroutine, nested literals included.
func fan(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			func() { fn(i) }()
		}()
	}
	wg.Wait()
}
