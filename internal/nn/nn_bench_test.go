package nn

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// trainStep runs one forward+backward+step on the model.
func trainStep(m *Sequential, x *tensor.Tensor, y []int, opt *SGD) {
	var loss SoftmaxCrossEntropy
	logits := m.Forward(x, true)
	_, probs := loss.Forward(logits, y)
	m.Backward(loss.Backward(probs, y))
	opt.Step(m)
}

func benchModel(b *testing.B, m *Sequential, shape []int, classes int) {
	b.Helper()
	rng := stats.NewRNG(1)
	x := tensor.New(shape...)
	x.RandNormal(rng, 1)
	y := make([]int, shape[0])
	for i := range y {
		y[i] = rng.IntN(classes)
	}
	opt := NewSGD(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainStep(m, x, y, opt)
	}
}

// BenchmarkTrainStepMLP measures one batch-32 training step of the
// experiment harness's MLP.
func BenchmarkTrainStepMLP(b *testing.B) {
	benchModel(b, NewMLP(24, []int{32}, 10, 1), []int{32, 24}, 10)
}

// BenchmarkTrainStepCNN5 measures one batch-16 step of the SC model.
func BenchmarkTrainStepCNN5(b *testing.B) {
	benchModel(b, NewCNN5(1, 12, 12, 35, 1), []int{16, 1, 12, 12}, 35)
}

// BenchmarkTrainStepResNetLite measures one batch-16 step of the CIFAR
// model.
func BenchmarkTrainStepResNetLite(b *testing.B) {
	benchModel(b, NewResNetLite(3, 8, 8, 10, 1), []int{16, 3, 8, 8}, 10)
}

// BenchmarkForwardResNetLite measures inference only.
func BenchmarkForwardResNetLite(b *testing.B) {
	m := NewResNetLite(3, 8, 8, 10, 1)
	rng := stats.NewRNG(2)
	x := tensor.New(32, 3, 8, 8)
	x.RandNormal(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

// benchStepReuse measures one step of the paper-sized MLP (24→32→10) with
// buffer reuse and the in-place loss head — the training engine's zero-alloc
// hot path, exactly as core.sgdEpochs strings it together.
func benchStepReuse(b *testing.B, batch int) {
	m := NewMLP(24, []int{32}, 10, 1)
	m.EnableBufferReuse()
	rng := stats.NewRNG(1)
	x := tensor.New(batch, 24)
	x.RandNormal(rng, 1)
	y := make([]int, batch)
	for i := range y {
		y[i] = rng.IntN(10)
	}
	opt := NewSGD(0.05)
	var loss SoftmaxCrossEntropy
	probs := tensor.New(batch, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(x, true)
		loss.ForwardInto(probs, logits, y)
		loss.BackwardInPlace(probs, y)
		m.Backward(probs)
		opt.Step(m)
	}
}

// BenchmarkTrainStepMLPReuse is the reuse-mode step at batch 32.
func BenchmarkTrainStepMLPReuse(b *testing.B) { benchStepReuse(b, 32) }

// BenchmarkTrainStepPaperMLP is the reuse-mode step at batch 16 — the one
// SGD step every executor of the train-paper, pop-regroup, net-loopback and
// serve-fanout workloads repeats (its five GEMMs are the paper_* shapes of
// internal/tensor/BENCHMARKS.md).
func BenchmarkTrainStepPaperMLP(b *testing.B) { benchStepReuse(b, 16) }

// BenchmarkParamVectorInto measures the reused-buffer flatten against the
// allocating BenchmarkParamVectorRoundTrip baseline.
func BenchmarkParamVectorInto(b *testing.B) {
	m := NewResNetLite(3, 8, 8, 10, 1)
	buf := make([]float64, m.NumParams())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = m.ParamVectorInto(buf)
		m.SetParamVector(buf)
	}
}

// BenchmarkParamVectorRoundTrip measures the flatten/restore path used by
// every aggregation.
func BenchmarkParamVectorRoundTrip(b *testing.B) {
	m := NewResNetLite(3, 8, 8, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := m.ParamVector()
		m.SetParamVector(v)
	}
}
