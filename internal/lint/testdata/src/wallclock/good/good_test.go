package good

import (
	"testing"
	"time"
)

// Test files may read the wall clock.
func TestOverran(t *testing.T) {
	start := time.Now()
	if Overran(start, start, time.Second) {
		t.Error("an instant overran its own budget")
	}
}
