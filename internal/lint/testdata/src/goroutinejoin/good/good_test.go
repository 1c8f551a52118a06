package good

import "testing"

// Test files may start goroutines anywhere: the test binary's leak check
// runs them.
func TestDaemon(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		Daemon()
	}()
	<-done
}
