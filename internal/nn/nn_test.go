package nn

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// lossOf runs a forward pass and returns the mean cross-entropy loss.
func lossOf(m *Sequential, x *tensor.Tensor, labels []int) float64 {
	logits := m.Forward(x, true)
	loss, _ := SoftmaxCrossEntropy{}.Forward(logits, labels)
	return loss
}

// gradCheck verifies backprop gradients against central finite differences
// on a sample of parameter coordinates.
func gradCheck(t *testing.T, m *Sequential, x *tensor.Tensor, labels []int, samples int, tol float64) {
	t.Helper()
	// Analytic gradients.
	logits := m.Forward(x, true)
	loss := SoftmaxCrossEntropy{}
	_, probs := loss.Forward(logits, labels)
	m.Backward(loss.Backward(probs, labels))
	analytic := m.GradVector()

	params := m.ParamVector()
	rng := stats.NewRNG(99)
	const h = 1e-5
	for s := 0; s < samples; s++ {
		i := rng.IntN(len(params))
		orig := params[i]
		params[i] = orig + h
		m.SetParamVector(params)
		lp := lossOf(m, x, labels)
		params[i] = orig - h
		m.SetParamVector(params)
		lm := lossOf(m, x, labels)
		params[i] = orig
		m.SetParamVector(params)
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-analytic[i]) > tol*(1+math.Abs(numeric)) {
			t.Errorf("grad mismatch at param %d: numeric %v, analytic %v", i, numeric, analytic[i])
		}
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := stats.NewRNG(1)
	d := NewDense(2, 2, rng)
	d.W.Data = []float64{1, 2, 3, 4} // [[1,2],[3,4]]
	d.B.Data = []float64{10, 20}
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x, false)
	if y.Data[0] != 14 || y.Data[1] != 26 {
		t.Fatalf("dense forward = %v, want [14 26]", y.Data)
	}
}

func TestGradCheckMLP(t *testing.T) {
	m := NewMLP(6, []int{8, 5}, 3, 7)
	rng := stats.NewRNG(2)
	x := tensor.New(4, 6)
	x.RandNormal(rng, 1)
	labels := []int{0, 2, 1, 2}
	gradCheck(t, m, x, labels, 60, 1e-4)
}

func TestGradCheckLogistic(t *testing.T) {
	m := NewLogistic(5, 4, 3)
	rng := stats.NewRNG(4)
	x := tensor.New(3, 5)
	x.RandNormal(rng, 1)
	gradCheck(t, m, x, []int{1, 3, 0}, 20, 1e-5)
}

func TestGradCheckConvNet(t *testing.T) {
	rng := stats.NewRNG(5)
	net := NewSequential(
		NewConv2D(2, 3, 3, 3, 1, 1, rng), NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(3*3*3, 4, rng),
	)
	x := tensor.New(2, 2, 6, 6)
	x.RandNormal(rng, 1)
	gradCheck(t, net, x, []int{0, 3}, 50, 1e-4)
}

func TestGradCheckResidualWithProjection(t *testing.T) {
	rng := stats.NewRNG(6)
	net := NewSequential(
		NewResidual(2, 4, rng), // projection path exercised (2 != 4)
		NewGlobalAvgPool(),
		NewDense(4, 3, rng),
	)
	x := tensor.New(2, 2, 4, 4)
	x.RandNormal(rng, 1)
	gradCheck(t, net, x, []int{2, 1}, 50, 1e-4)
}

func TestGradCheckResidualIdentity(t *testing.T) {
	rng := stats.NewRNG(8)
	net := NewSequential(
		NewResidual(3, 3, rng), // identity skip
		NewGlobalAvgPool(),
		NewDense(3, 2, rng),
	)
	x := tensor.New(2, 3, 4, 4)
	x.RandNormal(rng, 1)
	gradCheck(t, net, x, []int{0, 1}, 40, 1e-4)
}

func TestGradCheckResNetLite(t *testing.T) {
	m := NewResNetLite(1, 8, 8, 4, 11)
	rng := stats.NewRNG(12)
	x := tensor.New(2, 1, 8, 8)
	x.RandNormal(rng, 1)
	gradCheck(t, m, x, []int{3, 0}, 40, 2e-4)
}

func TestMaxPoolKnown(t *testing.T) {
	p := NewMaxPool2D(2)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(x, false)
	want := []float64{6, 8, 14, 16}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("maxpool = %v, want %v", y.Data, want)
		}
	}
	// Backward routes gradient only to the max positions.
	g := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	dx := p.Backward(g)
	sum := 0.0
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("maxpool backward mass = %v, want 4", sum)
	}
	if dx.Data[5] != 1 || dx.Data[7] != 1 || dx.Data[13] != 1 || dx.Data[15] != 1 {
		t.Fatalf("maxpool backward misrouted: %v", dx.Data)
	}
}

func TestGlobalAvgPoolKnown(t *testing.T) {
	p := NewGlobalAvgPool()
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := p.Forward(x, false)
	if y.Data[0] != 2.5 || y.Data[1] != 25 {
		t.Fatalf("gap = %v", y.Data)
	}
	dx := p.Backward(tensor.FromSlice([]float64{4, 8}, 1, 2))
	if dx.Data[0] != 1 || dx.Data[4] != 2 {
		t.Fatalf("gap backward = %v", dx.Data)
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.FromSlice([]float64{0, 0, 0}, 1, 3)
	loss, probs := SoftmaxCrossEntropy{}.Forward(logits, []int{1})
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Errorf("uniform loss = %v, want ln 3", loss)
	}
	for _, p := range probs.Data {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Errorf("uniform probs = %v", probs.Data)
		}
	}
	// Gradient rows sum to zero.
	grad := SoftmaxCrossEntropy{}.Backward(probs, []int{1})
	sum := 0.0
	for _, g := range grad.Data {
		sum += g
	}
	if math.Abs(sum) > 1e-12 {
		t.Errorf("grad row sum = %v, want 0", sum)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, 0}, 1, 2)
	loss, probs := SoftmaxCrossEntropy{}.Forward(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss overflow: %v", loss)
	}
	if probs.Data[0] < 0.999 {
		t.Fatalf("stability shift broke probs: %v", probs.Data)
	}
}

// TestProbsIntoMatchesForwardInto: the probabilities-only entry local SGD
// uses writes Float64bits the same probabilities as ForwardInto, and keeps
// its label-range check.
func TestProbsIntoMatchesForwardInto(t *testing.T) {
	const b, c = 9, 7
	rng := stats.NewRNG(5)
	logits := tensor.New(b, c)
	labels := make([]int, b)
	for i := range logits.Data {
		logits.Data[i] = rng.Normal(0, 4)
	}
	logits.Data[3] = 800 // one row far past exp's range before the max shift
	for i := range labels {
		labels[i] = rng.IntN(c)
	}
	var loss SoftmaxCrossEntropy
	want, got := tensor.New(b, c), tensor.New(b, c)
	loss.ForwardInto(want, logits, labels)
	loss.ProbsInto(got, logits, labels)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("prob %d: ProbsInto %x, ForwardInto %x", i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
	for _, bad := range []int{-1, c} {
		labels[b-1] = bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label %d: ProbsInto did not panic", bad)
				}
			}()
			loss.ProbsInto(got, logits, labels)
		}()
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	m := NewMLP(4, []int{5}, 3, 1)
	v := m.ParamVector()
	if len(v) != m.NumParams() {
		t.Fatalf("vector length %d, NumParams %d", len(v), m.NumParams())
	}
	for i := range v {
		v[i] = float64(i)
	}
	m.SetParamVector(v)
	got := m.ParamVector()
	for i := range v {
		if got[i] != v[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestSetParamVectorPanicsOnBadLength(t *testing.T) {
	m := NewLogistic(3, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.SetParamVector(make([]float64, 3))
}

func TestModelCloneIndependent(t *testing.T) {
	m := NewMLP(4, []int{6}, 3, 2)
	c := m.Clone()
	v := c.ParamVector()
	for i := range v {
		v[i] = 0
	}
	c.SetParamVector(v)
	for _, p := range m.ParamVector() {
		if p != 0 {
			return // original untouched, good
		}
	}
	t.Fatal("clone shares parameter storage with original")
}

func TestSGDReducesLoss(t *testing.T) {
	rng := stats.NewRNG(3)
	m := NewMLP(4, []int{8}, 2, 3)
	x := tensor.New(16, 4)
	labels := make([]int, 16)
	// Linearly separable toy data.
	for i := 0; i < 16; i++ {
		cls := i % 2
		for j := 0; j < 4; j++ {
			x.Data[i*4+j] = rng.Normal(float64(2*cls-1), 0.3)
		}
		labels[i] = cls
	}
	loss := SoftmaxCrossEntropy{}
	opt := NewSGD(0.5)
	first := lossOf(m, x, labels)
	for it := 0; it < 60; it++ {
		logits := m.Forward(x, true)
		_, probs := loss.Forward(logits, labels)
		m.Backward(loss.Backward(probs, labels))
		opt.Step(m)
	}
	last := lossOf(m, x, labels)
	if last >= first/4 {
		t.Fatalf("SGD failed to learn: loss %v -> %v", first, last)
	}
	logits := m.Forward(x, false)
	correct := 0
	for i, label := range labels {
		if (logits.Data[2*i+1] > logits.Data[2*i]) == (label == 1) {
			correct++
		}
	}
	if correct < 15 {
		t.Fatalf("accuracy %d/16 on separable data", correct)
	}
}

func TestNumParamsCounts(t *testing.T) {
	m := NewLogistic(10, 4, 1)
	if m.NumParams() != 10*4+4 {
		t.Fatalf("NumParams = %d, want 44", m.NumParams())
	}
}

func TestCNN5Shapes(t *testing.T) {
	m := NewCNN5(1, 16, 16, 35, 1)
	x := tensor.New(2, 1, 16, 16)
	y := m.Forward(x, false)
	if y.Shape[0] != 2 || y.Shape[1] != 35 {
		t.Fatalf("CNN5 output shape %v", y.Shape)
	}
}

func TestResNetLiteShapes(t *testing.T) {
	m := NewResNetLite(3, 8, 8, 10, 1)
	x := tensor.New(3, 3, 8, 8)
	y := m.Forward(x, false)
	if y.Shape[0] != 3 || y.Shape[1] != 10 {
		t.Fatalf("ResNetLite output shape %v", y.Shape)
	}
}

func TestSummary(t *testing.T) {
	m := NewMLP(4, []int{8}, 3, 1)
	s := m.Summary()
	if !strings.Contains(s, "dense") || !strings.Contains(s, "relu") || !strings.Contains(s, "total") {
		t.Fatalf("summary missing layers:\n%s", s)
	}
	// Total line must show NumParams.
	if !strings.Contains(s, "67 params") { // 4*8+8 + 8*3+3 = 40+27 = 67
		t.Fatalf("summary total wrong:\n%s", s)
	}
}
