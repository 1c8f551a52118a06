package nn

import "repro/internal/tensor"

// SGD is stochastic gradient descent with optional momentum and weight decay.
// The paper's local update (Alg. 1 line 13) is plain SGD; momentum and decay
// are exposed for the ablation benches.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	vel         []*tensor.Tensor
}

// NewSGD returns an optimizer with the given learning rate and no momentum
// or weight decay.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step applies one descent update to every parameter of m using the
// currently accumulated gradients. Gradients are not cleared: every
// layer's Backward overwrites its gradients, so the next batch starts fresh.
//
//lint:hotpath
func (o *SGD) Step(m *Sequential) {
	params := m.Params()
	grads := m.Grads()
	//lint:ignore float-eq Momentum 0 is the exact sentinel for "momentum disabled"
	if o.Momentum != 0 && o.vel == nil {
		o.vel = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			o.vel[i] = tensor.New(p.Shape...)
		}
	}
	for i, p := range params {
		g := grads[i]
		//lint:ignore float-eq WeightDecay 0 is the exact sentinel for "decay disabled"
		if o.WeightDecay != 0 {
			// g += wd * p, folded into the update below without mutating g.
			//lint:ignore float-eq Momentum 0 is the exact sentinel for "momentum disabled"
			if o.Momentum != 0 {
				v := o.vel[i]
				for j := range p.Data {
					gv := g.Data[j] + float64(o.WeightDecay*p.Data[j])
					v.Data[j] = float64(o.Momentum*v.Data[j]) + gv
					p.Data[j] -= float64(o.LR * v.Data[j])
				}
			} else {
				for j := range p.Data {
					p.Data[j] -= float64(o.LR * (g.Data[j] + float64(o.WeightDecay*p.Data[j])))
				}
			}
			continue
		}
		//lint:ignore float-eq Momentum 0 is the exact sentinel for "momentum disabled"
		if o.Momentum != 0 {
			v := o.vel[i]
			for j := range p.Data {
				v.Data[j] = float64(o.Momentum*v.Data[j]) + g.Data[j]
				p.Data[j] -= float64(o.LR * v.Data[j])
			}
		} else {
			p.AddScaled(-o.LR, g)
		}
	}
}
