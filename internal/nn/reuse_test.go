package nn

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// step runs one forward/backward/step with the in-place loss head, the exact
// sequence the training engine's hot loop uses.
func step(m *Sequential, x *tensor.Tensor, y []int, opt *SGD, probs *tensor.Tensor) {
	var loss SoftmaxCrossEntropy
	logits := m.Forward(x, true)
	if probs == nil || !probs.SameShape(logits) {
		probs = tensor.New(logits.Shape...)
	}
	loss.ForwardInto(probs, logits, y)
	loss.BackwardInPlace(probs, y)
	m.Backward(probs)
	opt.Step(m)
}

// TestBufferReuseBitIdentical trains two identically-seeded models through
// steps that alternate batch shapes (the full/tail pattern of mini-batch
// SGD) and requires bit-for-bit equal parameters throughout. One model keeps
// its layers' recycled buffers from step to step; the reference takes each
// step on a fresh Clone, so every one of its buffers is newly allocated.
// Recycling must change where intermediates live, never what they hold.
func TestBufferReuseBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Sequential
		shape func(batch int) []int
	}{
		{"mlp", func() *Sequential { return NewMLP(10, []int{16}, 4, 3) },
			func(b int) []int { return []int{b, 10} }},
		{"resnetlite", func() *Sequential { return NewResNetLite(3, 8, 8, 10, 3) },
			func(b int) []int { return []int{b, 3, 8, 8} }},
		{"cnn5", func() *Sequential { return NewCNN5(3, 8, 8, 10, 3) },
			func(b int) []int { return []int{b, 3, 8, 8} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := tc.build()
			reused := tc.build()
			optP := NewSGD(0.05)
			optR := NewSGD(0.05)
			rng := stats.NewRNG(11)
			classes := 4
			if tc.name != "mlp" {
				classes = 10
			}
			for s, batch := range []int{8, 8, 5, 8, 3, 8} {
				x := tensor.New(tc.shape(batch)...)
				x.RandNormal(rng, 1)
				y := make([]int, batch)
				for i := range y {
					y[i] = rng.IntN(classes)
				}
				plain = plain.Clone()
				step(plain, x, y, optP, nil)
				step(reused, x, y, optR, nil)
				pv, rv := plain.ParamVector(), reused.ParamVector()
				for i := range pv {
					if math.Float64bits(pv[i]) != math.Float64bits(rv[i]) {
						t.Fatalf("step %d (batch %d): param %d diverged: %.17g vs %.17g",
							s, batch, i, rv[i], pv[i])
					}
				}
			}
		})
	}
}

// TestConv2DBufferReuseZeroAlloc pins the conv layer's steady state: with
// shapes warmed, a Forward/Backward pair must not allocate.
func TestConv2DBufferReuseZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(5)
	c := NewConv2D(3, 4, 3, 3, 1, 1, rng)
	x := tensor.New(2, 3, 6, 6)
	x.RandNormal(rng, 1)
	out := c.Forward(x, true)
	grad := tensor.New(out.Shape...)
	grad.RandNormal(rng, 1)
	c.Backward(grad)
	if allocs := testing.AllocsPerRun(20, func() {
		c.Forward(x, true)
		c.Backward(grad)
	}); allocs != 0 {
		t.Fatalf("warm Conv2D step allocated %.1f times per run, want 0", allocs)
	}
}

// TestParamVectorIntoReuses checks the in-place flatten reuses a
// sufficiently large destination and matches ParamVector exactly.
func TestParamVectorIntoReuses(t *testing.T) {
	m := NewMLP(10, []int{16}, 4, 3)
	want := m.ParamVector()
	buf := make([]float64, len(want))
	got := m.ParamVectorInto(buf)
	if &got[0] != &buf[0] {
		t.Fatal("ParamVectorInto reallocated despite sufficient capacity")
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("param %d: %.17g vs %.17g", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { m.ParamVectorInto(buf) }); allocs > 0 {
		t.Fatalf("ParamVectorInto allocates %.1f objects with a warm buffer, want 0", allocs)
	}
}
