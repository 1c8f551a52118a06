package data

import (
	"fmt"
	"math"
	"testing"
)

// FuzzRedraw holds the recipe a System's clients are drawn from (Labels,
// DirichletPartition on the labels, Marked, then each client's DrawInto) to
// the pooled path it replaces (Sample, DirichletPartition on the pool, the
// assigned rows read out of it): the same clients with the same rows, bit
// for bit, or the same panic on a configuration no partition can satisfy.
// The clients are drawn in reverse on one Scratch, so no draw may lean on
// where the previous one left the stream.
func FuzzRedraw(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(6), uint8(5), uint8(4), uint8(10), uint8(12), uint8(6), uint8(8), uint16(120), uint64(1), uint64(2))
	f.Add(uint8(9), uint8(2), uint8(0x7f), uint8(7), uint8(2), uint8(3), uint8(5), uint8(2), uint8(1), uint16(90), uint64(5), uint64(3))
	f.Add(uint8(0), uint8(2), uint8(1), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint16(1), uint64(0), uint64(0))
	f.Add(uint8(11), uint8(0), uint8(2), uint8(15), uint8(19), uint8(40), uint8(30), uint8(20), uint8(63), uint16(40), uint64(9), uint64(9))
	f.Fuzz(func(t *testing.T, classes, modes, shape, clients, minS, maxS, mean, std, alpha uint8, rows uint16, genSeed, partSeed uint64) {
		gcfg := GeneratorConfig{
			Classes: 1 + int(classes%12),
			Modes:   1 + int(modes%3),
			Noise:   1.5,
			Seed:    genSeed,
		}
		if shape&1 == 0 {
			gcfg.SampleShape = []int{1 + int(shape>>1)%8}
		} else {
			gcfg.SampleShape = []int{1 + int(shape>>1)%3, 1 + int(shape>>3)%4, 1 + int(shape>>5)%4}
		}
		pcfg := PartitionConfig{
			NumClients:  1 + int(clients%16),
			Alpha:       (float64(alpha%64) + 1) / 16,
			MinSamples:  int(minS % 20),
			MaxSamples:  int(maxS % 50),
			MeanSamples: float64(mean % 60),
			StdSamples:  float64(std%30) / 2,
			Seed:        partSeed,
		}
		n := int(rows % 600)
		gen := NewGenerator(gcfg)

		var pool *Dataset
		var want []*Client
		var assigned []int
		wantPanic := panicOf(func() {
			pool = gen.Sample(n, 0)
			want, assigned = DirichletPartition(pool, pcfg)
		})
		var recipe Rows
		var got []*Client
		gotPanic := panicOf(func() {
			labels, marks := gen.Labels(n, 0)
			var rows []int
			got, rows = DirichletPartition(labels, pcfg)
			recipe = gen.Marked(marks, rows, got)
		})
		if gotPanic != wantPanic {
			t.Fatalf("label path panicked with %q, pooled path with %q", gotPanic, wantPanic)
		}
		if wantPanic != "" {
			return
		}

		dim := pool.Dim()
		offs := make([]int, len(want)+1)
		for ci, w := range want {
			offs[ci+1] = offs[ci] + w.N
		}
		if offs[len(want)] != len(assigned) {
			t.Fatalf("%d rows assigned, clients hold %d", len(assigned), offs[len(want)])
		}
		var s Scratch
		for ci := len(got) - 1; ci >= 0; ci-- {
			c, w := got[ci], want[ci]
			if c.ID != w.ID || c.N != w.N {
				t.Fatalf("client %d: ID %d, N %d; want ID %d, N %d", ci, c.ID, c.N, w.ID, w.N)
			}
			for y := range c.Counts {
				if c.Counts[y] != w.Counts[y] {
					t.Fatalf("client %d: Counts %v, want %v", ci, c.Counts, w.Counts)
				}
			}
			x, y := make([]float64, c.N*dim), make([]int, c.N)
			recipe.DrawInto(c.ID, x, y, &s)
			for j, i := range assigned[offs[ci]:offs[ci+1]] {
				if y[j] != pool.Y[i] {
					t.Fatalf("client %d row %d: label %d, pool's %d", ci, j, y[j], pool.Y[i])
				}
				for k := 0; k < dim; k++ {
					if math.Float64bits(x[j*dim+k]) != math.Float64bits(pool.X[i*dim+k]) {
						t.Fatalf("client %d row %d: feature %d is %v, pool's %v", ci, j, k, x[j*dim+k], pool.X[i*dim+k])
					}
				}
			}
		}
	})
}

// panicOf runs fn and returns its panic value, formatted, or "" if it
// returned.
func panicOf(fn func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	fn()
	return ""
}
