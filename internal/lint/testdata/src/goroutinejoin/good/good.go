// Package good starts goroutines only where the rule allows: a listed
// spawner, a test file, or a line with a declared exception.
package good

// Daemon is a deliberate fire-and-forget, declared as such.
func Daemon() {
	//lint:ignore goroutine-join metrics flusher runs for the process lifetime by design
	go func() {
		println("background")
	}()
}
