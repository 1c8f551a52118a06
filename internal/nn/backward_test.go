package nn

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// TestSequentialBackwardMatchesLayerChain pins Sequential.Backward — which
// never computes the first layer's input gradient — to the full chain: on
// identically seeded models fed the same batch, every Grads() tensor must be
// bit-equal to what calling Layers[i].Backward by hand from the last layer
// to the first leaves behind. Two batches per model, so recycled buffers
// and the tail-batch resize are exercised too.
func TestSequentialBackwardMatchesLayerChain(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Sequential
		shape   func(batch int) []int
		classes int
	}{
		{"mlp", func() *Sequential { return NewMLP(24, []int{32}, 10, 5) },
			func(b int) []int { return []int{b, 24} }, 10},
		{"cnn5", func() *Sequential { return NewCNN5(1, 12, 12, 35, 5) },
			func(b int) []int { return []int{b, 1, 12, 12} }, 35},
		{"resnetlite", func() *Sequential { return NewResNetLite(3, 8, 8, 10, 5) },
			func(b int) []int { return []int{b, 3, 8, 8} }, 10},
	}
	for _, tc := range cases {
		seq, chain := tc.build(), tc.build()
		rng := stats.NewRNG(17)
		var loss SoftmaxCrossEntropy
		for _, batch := range []int{16, 7} {
			x := tensor.New(tc.shape(batch)...)
			x.RandNormal(rng, 1)
			y := make([]int, batch)
			for i := range y {
				y[i] = rng.IntN(tc.classes)
			}

			_, probs := loss.Forward(seq.Forward(x, true), y)
			seq.Backward(loss.Backward(probs, y))

			_, probs = loss.Forward(chain.Forward(x, true), y)
			grad := loss.Backward(probs, y)
			for i := len(chain.Layers) - 1; i >= 0; i-- {
				grad = chain.Layers[i].Backward(grad)
			}
			if !grad.SameShape(x) {
				t.Fatalf("%s: hand chain returned data gradient %v for input %v", tc.name, grad.Shape, x.Shape)
			}

			want := chain.Grads()
			for gi, g := range seq.Grads() {
				for j := range g.Data {
					if math.Float64bits(g.Data[j]) != math.Float64bits(want[gi].Data[j]) {
						t.Fatalf("%s batch %d: grad tensor %d element %d is %x, layer chain %x",
							tc.name, batch, gi, j, math.Float64bits(g.Data[j]), math.Float64bits(want[gi].Data[j]))
					}
				}
			}
		}
	}
}

// TestFirstLayerKeepsNoInputGradient checks what Sequential.Backward is for:
// a Dense or Conv2D first layer neither allocates nor retains the dx / dcols
// buffers its full Backward would have filled.
func TestFirstLayerKeepsNoInputGradient(t *testing.T) {
	rng := stats.NewRNG(19)
	var loss SoftmaxCrossEntropy
	run := func(m *Sequential, shape ...int) {
		x := tensor.New(shape...)
		x.RandNormal(rng, 1)
		y := make([]int, shape[0])
		_, probs := loss.Forward(m.Forward(x, true), y)
		m.Backward(loss.Backward(probs, y))
	}
	mlp := NewMLP(24, []int{32}, 10, 5)
	run(mlp, 16, 24)
	if d := mlp.Layers[0].(*Dense); d.dx != nil {
		t.Fatal("first Dense layer retained an input-gradient buffer")
	}
	if d := mlp.Layers[2].(*Dense); d.dx == nil {
		t.Fatal("second Dense layer must still compute its input gradient")
	}
	cnn := NewCNN5(1, 12, 12, 35, 5)
	run(cnn, 4, 1, 12, 12)
	if c := cnn.Layers[0].(*Conv2D); c.dx != nil || c.dcols != nil {
		t.Fatal("first Conv2D layer retained dx/dcols buffers")
	}
	if c := cnn.Layers[3].(*Conv2D); c.dx == nil || c.dcols == nil {
		t.Fatal("second Conv2D layer must still compute its input gradient")
	}
}

// TestReLUSelectsExactBits pins the branch-free ReLU to the if/else it
// replaced on the values where a mask-and-select could go wrong: zeros of
// both signs, infinities, NaN and subnormals, forward and backward.
func TestReLUSelectsExactBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{1.5, -1.5, 0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324}
	x := tensor.FromSlice(append([]float64(nil), vals...), 1, len(vals))
	r := NewReLU()
	out := r.Forward(x, true)
	// The gradient holds the same special values, rotated so that kept and
	// dropped positions each meet several of them.
	g := tensor.New(1, len(vals))
	for i := range vals {
		g.Data[i] = vals[(i+4)%len(vals)]
	}
	dx := r.Backward(g)
	for i, v := range vals {
		var wantOut, wantDx float64
		if v > 0 {
			wantOut, wantDx = v, g.Data[i]
		}
		if math.Float64bits(out.Data[i]) != math.Float64bits(wantOut) {
			t.Errorf("Forward(%v) = %x, want %x", v, math.Float64bits(out.Data[i]), math.Float64bits(wantOut))
		}
		if math.Float64bits(dx.Data[i]) != math.Float64bits(wantDx) {
			t.Errorf("Backward(%v) behind input %v = %x, want %x", g.Data[i], v, math.Float64bits(dx.Data[i]), math.Float64bits(wantDx))
		}
	}
}
