package nn

import (
	"math"

	"repro/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba). The paper's experiments use
// plain SGD; Adam is provided for the library's standalone usefulness and
// for ablation benches on the local update rule.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	t    int
	m, v []*tensor.Tensor
}

// NewAdam returns Adam with the canonical defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update using the model's accumulated gradients.
func (o *Adam) Step(model *Sequential) {
	params := model.Params()
	grads := model.Grads()
	if o.m == nil {
		o.m = make([]*tensor.Tensor, len(params))
		o.v = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			o.m[i] = tensor.New(p.Shape...)
			o.v[i] = tensor.New(p.Shape...)
		}
	}
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i, p := range params {
		g := grads[i]
		m, v := o.m[i], o.v[i]
		for j := range p.Data {
			gj := g.Data[j]
			//lint:ignore float-eq WeightDecay 0 is the exact sentinel for "decay disabled"
			if o.WeightDecay != 0 {
				gj += float64(o.WeightDecay * p.Data[j])
			}
			m.Data[j] = float64(o.Beta1*m.Data[j]) + float64((1-o.Beta1)*gj)
			v.Data[j] = float64(o.Beta2*v.Data[j]) + float64((1-o.Beta2)*gj*gj)
			mhat := m.Data[j] / c1
			vhat := v.Data[j] / c2
			p.Data[j] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
}

// LRSchedule maps a step index to a learning rate.
type LRSchedule interface {
	// At returns the learning rate for step t (0-based).
	At(t int) float64
}

// ConstantLR always returns the same rate.
type ConstantLR float64

// At returns the constant rate.
func (c ConstantLR) At(int) float64 { return float64(c) }

// StepDecay multiplies the base rate by Factor every Every steps.
type StepDecay struct {
	Base   float64
	Factor float64
	Every  int
}

// At returns Base·Factor^(t/Every).
func (s StepDecay) At(t int) float64 {
	if s.Every <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Factor, float64(t/s.Every))
}

// CosineDecay anneals from Base to Floor over Horizon steps.
type CosineDecay struct {
	Base, Floor float64
	Horizon     int
}

// At returns the cosine-annealed rate, clamped at Floor past the horizon.
func (c CosineDecay) At(t int) float64 {
	if c.Horizon <= 0 || t >= c.Horizon {
		return c.Floor
	}
	cosv := 0.5 * (1 + math.Cos(math.Pi*float64(t)/float64(c.Horizon)))
	return c.Floor + float64((c.Base-c.Floor)*cosv)
}
