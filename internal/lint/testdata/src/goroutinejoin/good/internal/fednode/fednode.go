// Package fednode holds a listed spawner, a pointer method.
package fednode

// Edge is a node.
type Edge struct{ done chan struct{} }

// Run starts the edge's accept loop, which starts one goroutine per peer.
func (e *Edge) Run(peers int) {
	go func() {
		defer close(e.done)
		for i := 0; i < peers; i++ {
			go func() {}()
		}
	}()
}
