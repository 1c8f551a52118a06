package main

import (
	"sync"
	"time"
)

// The development host is a shared 2-vCPU VM whose cores run the same
// arithmetic anywhere between 0.5× and 1× of their best speed, in phases
// that last seconds to minutes and never show up as steal time. A 10 s
// window cannot average that out, so the harness measures it instead: a
// speedometer times a fixed, cache-resident arithmetic kernel on every CPU
// at short intervals while a window is open, and every timed window is
// reported in seconds of a host running at nominalSpeed (see nominal). The
// program under test never sees any of this; the raw wall time and the
// observed speed are kept in the result beside the normalised figure.
//
// nominalSpeed is the kernel's rate per CPU on the development host when it
// is quiet (kernel passes per second). It only fixes the unit: a different
// constant rescales every timing of both sides of a comparison alike.
const nominalSpeed = 4000.0

// cpuShare is the share of a window's time taken to scale with the measured
// speed; the rest (hand-offs, syscalls, waiting, memory) is taken not to.
// Fitted on the development host: over 12 same-seed runs per workload at
// speeds from 0.47 to 0.89, 0.5 brought the run-to-run quartile spread of
// rounds_per_s from 7–19 % of the median (raw wall time) to 3–9 %, and kept
// those medians within 7 % of a quiet-host sweep (speed 0.9–1.1) on every
// workload (README, "Host speed").
const cpuShare = 0.5

const (
	speedKernelDim = 64                   // 3 matrices × 32 KB: L1/L2-resident
	speedSample    = 2 * time.Millisecond // length of one sample, per CPU
	speedInterval  = 100 * time.Millisecond
)

// speedometer accumulates host-speed samples over one timed window.
type speedometer struct {
	mu   sync.Mutex
	sum  float64
	n    int
	last time.Time
	bufs [][]float64
}

func newSpeedometer() *speedometer {
	s := &speedometer{bufs: make([][]float64, hostProcs())}
	for i := range s.bufs {
		b := make([]float64, 3*speedKernelDim*speedKernelDim)
		for j := range b {
			b[j] = float64(j%7) * 0.5
		}
		s.bufs[i] = b
	}
	return s
}

// kernel runs the fixed arithmetic for about speedSample and returns passes
// per second.
func speedKernel(buf []float64) float64 {
	const n = speedKernelDim
	a, b, c := buf[:n*n], buf[n*n:2*n*n], buf[2*n*n:]
	passes := 0
	t0 := time.Now()
	for time.Since(t0) < speedSample {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] = 0.5*c[i*n+j] + aik*b[k*n+j]
				}
			}
		}
		passes++
	}
	return float64(passes) / time.Since(t0).Seconds()
}

// reset starts a new window.
func (s *speedometer) reset() {
	s.mu.Lock()
	s.sum, s.n = 0, 0
	s.mu.Unlock()
}

// sample measures the speed of every CPU at once and records the mean.
func (s *speedometer) sample() {
	speeds := make([]float64, len(s.bufs))
	var wg sync.WaitGroup
	for i := range s.bufs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			speeds[i] = speedKernel(s.bufs[i])
		}(i)
	}
	wg.Wait()
	total := 0.0
	for _, v := range speeds {
		total += v
	}
	s.mu.Lock()
	s.sum += total / float64(len(speeds))
	s.n++
	s.last = time.Now()
	s.mu.Unlock()
}

// tick samples if speedInterval has passed since the last sample: the form
// a loop calls between timed steps, outside the step's own clock.
func (s *speedometer) tick() {
	s.mu.Lock()
	due := time.Since(s.last) >= speedInterval
	s.mu.Unlock()
	if due {
		s.sample()
	}
}

// during samples every speedInterval in the background while fn runs — for
// windows that are one blocking call — with a sample at each end.
func (s *speedometer) during(fn func()) {
	s.sample()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(speedInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	fn()
	close(stop)
	<-done
	s.sample()
}

// nominal converts wall seconds measured during the sampled window into
// seconds on a host at nominal speed: wall = nominal·(cpuShare/speed +
// 1−cpuShare), solved for nominal.
func (s *speedometer) nominal(wall float64) float64 {
	return wall / (cpuShare/s.speed() + 1 - cpuShare)
}

// speed is the mean observed speed relative to nominal (1 when nothing was
// sampled).
func (s *speedometer) speed() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 1
	}
	return s.sum / float64(s.n) / nominalSpeed
}
