package tensor

import "math"

// Adam is the Adam optimiser, the one the paper uses to train YOLOv5
// (Section VI-B, "we use a batch size of 256, and apply the Adam optimizer").
type Adam struct {
	LR          float32
	Beta1       float32
	Beta2       float32
	Eps         float32
	WeightDecay float32

	params []*Tensor
	m      [][]float32
	v      [][]float32
	t      int
}

// NewAdam builds an optimiser over params with the given learning rate and
// conventional betas.
func NewAdam(params []*Tensor, lr float32) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		if p.Grad == nil {
			panic("tensor: Adam requires parameters with gradient buffers")
		}
		a.m = append(a.m, make([]float32, len(p.Data)))
		a.v = append(a.v, make([]float32, len(p.Data)))
	}
	return a
}

// Step applies one Adam update to every parameter and zeroes the gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for pi, p := range a.params {
		m, v := a.m[pi], a.v[pi]
		for i := range p.Data {
			g := p.Grad[i]
			if a.WeightDecay > 0 {
				g += float32(a.WeightDecay * p.Data[i])
			}
			m[i] = float32(a.Beta1*m[i]) + float32((1-a.Beta1)*g)
			v[i] = float32(a.Beta2*v[i]) + float32((1-a.Beta2)*g*g)
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.Data[i] -= a.LR * mh / (float32(math.Sqrt(float64(vh))) + a.Eps)
			p.Grad[i] = 0
		}
	}
}

// ClipGrad scales gradients so their global L2 norm does not exceed maxNorm,
// stabilising the detector's early training.
func ClipGrad(params []*Tensor, maxNorm float32) {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += float64(float64(g) * float64(g))
		}
	}
	norm := float32(math.Sqrt(sq))
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] *= scale
		}
	}
}
