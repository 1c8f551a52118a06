package data

import (
	"math"
	"testing"
)

// virtualTestPartition returns a small virtual population for the
// equivalence tests.
func virtualTestPartition(n int, seed uint64) *VirtualPartition {
	gen := FlatConfig(5, 6, seed)
	part := PartitionConfig{
		NumClients: n, Alpha: 0.4,
		MinSamples: 8, MaxSamples: 30, MeanSamples: 18, StdSamples: 6,
		Seed: seed + 1,
	}
	return NewVirtualPartition(gen, part)
}

// client synthesizes client id's flyweight on its own: per-ID synthesis, the
// oracle of the population build.
func client(vp *VirtualPartition, id int) *Client {
	c := new(Client)
	vp.fill(c, make([]float64, vp.gen.cfg.Classes), id, new(Scratch))
	return c
}

// TestVirtualClientSelfConsistent checks that the flyweight histogram a
// VirtualPartition reports for a client is exactly the histogram of the
// samples it materializes for that client.
func TestVirtualClientSelfConsistent(t *testing.T) {
	vp := virtualTestPartition(20, 3)
	for id := 0; id < vp.NumClients(); id++ {
		c := client(vp, id)
		x, y := vp.MaterializeInto(id, new(SampleBuffer))
		if c.N != len(y) {
			t.Fatalf("client %d: N=%d but materialized %d labels", id, c.N, len(y))
		}
		if c.N < 8 || c.N > 30 {
			t.Fatalf("client %d: N=%d outside configured [8,30]", id, c.N)
		}
		if x.Shape[0] != c.N || x.Shape[1] != 6 {
			t.Fatalf("client %d: batch shape %v, want [%d 6]", id, x.Shape, c.N)
		}
		hist := make([]float64, 5) // virtualTestPartition's classes
		for _, label := range y {
			hist[label]++
		}
		for cls := range hist {
			if hist[cls] != c.Counts[cls] {
				t.Fatalf("client %d class %d: histogram %v vs Counts %v", id, cls, hist[cls], c.Counts[cls])
			}
		}
	}
}

// TestVirtualMaterializeMatchesMaterializeAll pins the bridge the core
// equivalence tests stand on: per-client synthesis into a SampleBuffer is
// bit-identical to the rows MaterializeAll holds for the client, which its
// recipe copies out, and to DrawInto's into fresh storage on a fresh scratch.
func TestVirtualMaterializeMatchesMaterializeAll(t *testing.T) {
	vp := virtualTestPartition(15, 9)
	rows, clients := vp.MaterializeAll()
	if len(clients) != 15 {
		t.Fatalf("MaterializeAll returned %d clients", len(clients))
	}
	var buf SampleBuffer
	for _, c := range clients {
		xb, yb := vp.MaterializeInto(c.ID, &buf)
		for _, r := range []Rows{rows, vp} {
			xa, ya := make([]float64, c.N*6), make([]int, c.N) // 6 features a row
			r.DrawInto(c.ID, xa, ya, new(Scratch))
			if len(ya) != len(yb) {
				t.Fatalf("client %d: %d vs %d labels", c.ID, len(ya), len(yb))
			}
			for i := range ya {
				if ya[i] != yb[i] {
					t.Fatalf("client %d sample %d: label %d vs %d", c.ID, i, ya[i], yb[i])
				}
			}
			for i := range xa {
				if math.Float64bits(xa[i]) != math.Float64bits(xb.Data[i]) {
					t.Fatalf("client %d: feature %d differs: %v vs %v", c.ID, i, xa[i], xb.Data[i])
				}
			}
		}
	}
}

// TestVirtualClientsParallelDeterministic: the parallel population build
// returns exactly what per-ID synthesis returns, in position — and although
// its histograms share one backing array, appending to one client's Counts
// reallocates instead of writing into the next client's.
func TestVirtualClientsParallelDeterministic(t *testing.T) {
	vp := virtualTestPartition(33, 5)
	clients := vp.Clients()
	_ = append(clients[0].Counts, -1)
	for id, got := range clients {
		want := client(vp, id)
		if got.ID != id || got.N != want.N || len(got.Counts) != len(want.Counts) {
			t.Fatalf("client %d: parallel (ID=%d N=%d, %d classes) vs serial (N=%d, %d classes)", id, got.ID, got.N, len(got.Counts), want.N, len(want.Counts))
		}
		for y := range want.Counts {
			if got.Counts[y] != want.Counts[y] {
				t.Fatalf("client %d label %d: %v vs %v", id, y, got.Counts[y], want.Counts[y])
			}
		}
	}
}

// TestSampleBufferReuse: repeated materialization through one buffer reuses
// its backing storage once it has held the largest client.
func TestSampleBufferReuse(t *testing.T) {
	vp := virtualTestPartition(10, 7)
	var buf SampleBuffer
	// Warm the buffer with the largest client so later calls never grow it.
	largest := 0
	for id := 0; id < vp.NumClients(); id++ {
		if c := client(vp, id); c.N > client(vp, largest).N {
			largest = id
		}
	}
	vp.MaterializeInto(largest, &buf)
	x1, y1 := vp.MaterializeInto(0, &buf)
	p1, py1 := &x1.Data[0], &y1[0]
	x2, y2 := vp.MaterializeInto(1, &buf)
	if &x2.Data[0] != p1 || &y2[0] != py1 {
		t.Fatal("warm SampleBuffer grew new backing storage across clients")
	}
}
