package tensor

import "math"

// FoldConvBN combines a convolution and the batch norm that follows it into
// a single convolution: w' = w * gamma/std, b' = beta + (b - mean) *
// gamma/std. This is the paper's "replace the internal redundant
// calculations in the model with constants" step; the int8 port
// (internal/quant) and the float fused inference blocks both fold through it.
// The bias product is converted to float32 before it is added, so no GOARCH
// fuses the two roundings (arm64 would emit FMADDS).
func FoldConvBN(conv *Conv2D, bn *BatchNorm2D) (w []float32, b []float32) {
	per := conv.InC * conv.K * conv.K
	w = make([]float32, conv.OutC*per)
	b = make([]float32, conv.OutC)
	for oc := 0; oc < conv.OutC; oc++ {
		std := float32(math.Sqrt(float64(bn.RunVar[oc] + bn.Eps)))
		scale := bn.Gamma.Data[oc] / std
		for i := 0; i < per; i++ {
			w[oc*per+i] = conv.W.Data[oc*per+i] * scale
		}
		b[oc] = bn.Beta.Data[oc] + float32((conv.B.Data[oc]-bn.RunMean[oc])*scale)
	}
	return w, b
}

// FusedConvBNAct is the one-pass inference form of a conv → batch-norm →
// leaky-ReLU block: the batch-norm constants are folded into the weights at
// build time and the activation runs in the GEMM epilogue, so the block
// writes its output feature map exactly once instead of walking three
// tensors. It is inference-only — it snapshots the source layers' weights
// and records no backward bookkeeping, so it must be rebuilt (Fuse again)
// after the underlying layers train or load new weights.
type FusedConvBNAct struct {
	ConvGeom
	W     []float32 // folded weights [OutC][InC*K*K]
	B     []float32 // folded bias [OutC]
	Slope float32   // leaky-ReLU negative slope
}

// FuseConvBNAct folds conv and bn into a single fused block with act's
// slope applied in the epilogue.
func FuseConvBNAct(conv *Conv2D, bn *BatchNorm2D, act *LeakyReLU) *FusedConvBNAct {
	w, b := FoldConvBN(conv, bn)
	return &FusedConvBNAct{ConvGeom: conv.ConvGeom, W: w, B: b, Slope: act.Slope}
}

// Block is the fused block's ConvKernel: the GEMM, which applies the
// leaky-ReLU to each output as it stores it.
func (f *FusedConvBNAct) Block(panel []float32, ldb int, y []float32, ldc, u int) {
	kdim := f.InC * f.K * f.K
	gemm(f.W, kdim, f.B, panel, ldb, y, ldc, f.OutC, kdim, u, f.Slope)
}

// ForwardPooled is ForwardCancel with no cancellation.
func (f *FusedConvBNAct) ForwardPooled(x *Tensor, p *Pool) *Tensor {
	return f.ForwardCancel(x, p, nil)
}

// ForwardCancel runs the fused block under the inference contract of
// Conv2D.ForwardCancel: output from p (nil allocates), and once done closes
// the returned buffer is partially written and the caller must discard it.
func (f *FusedConvBNAct) ForwardCancel(x *Tensor, p *Pool, done <-chan struct{}) *Tensor {
	return forward(f, x.Data, x.Shape[0], x.Shape[2], x.Shape[3], p, done)
}

// forward runs the float-output kernel k over the N items of x, each
// H x W (see Conv), into an output drawn from p.
func forward[In colScalar, K ConvKernel[In, float32]](k K, x []In, N, H, W int, p *Pool, done <-chan struct{}) *Tensor {
	g := k.Geom()
	OH, OW := g.OutSize(H, W)
	y := p.Get(N, g.OutC, OH, OW)
	Conv(k, x, N, H, W, y.Data, done)
	return y
}
