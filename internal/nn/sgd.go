package nn

// SGD is plain stochastic gradient descent, the paper's local update (Alg. 1
// line 13).
type SGD struct {
	LR float64
}

// NewSGD returns an optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step applies one descent update to every parameter of m using the
// currently accumulated gradients. Gradients are not cleared: every
// layer's Backward overwrites its gradients, so the next batch starts fresh.
func (o *SGD) Step(m *Sequential) {
	grads := m.Grads()
	for i, p := range m.Params() {
		p.AddScaled(-o.LR, grads[i])
	}
}
