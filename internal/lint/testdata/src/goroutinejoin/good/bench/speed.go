// Package main holds a listed spawner whose package path is one element.
package main

type speedometer struct{ done chan struct{} }

func (s *speedometer) sample() {
	go func() { close(s.done) }()
}

func main() {
	s := &speedometer{done: make(chan struct{})}
	s.sample()
	<-s.done
}
