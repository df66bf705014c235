package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is a differentiable module with a forward pass, a backward pass and
// trainable parameters. Backward must be called with the gradient of the
// loss with respect to the layer's most recent output, and returns the
// gradient with respect to its input.
type Layer interface {
	Forward(x *Tensor, train bool) *Tensor
	Backward(dy *Tensor) *Tensor
	Params() []*Tensor
}

// Conv2D is a 2-D convolution with square kernels, equal stride in both
// dimensions, and zero padding.
type Conv2D struct {
	ConvGeom
	W *Tensor // [OutC, InC, K, K]
	B *Tensor // [OutC]

	lastIn *Tensor
}

// NewConv2D builds a convolution layer with Kaiming-initialised weights.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	if inC <= 0 || outC <= 0 || k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv config in=%d out=%d k=%d s=%d p=%d", inC, outC, k, stride, pad))
	}
	c := &Conv2D{ConvGeom: ConvGeom{inC, outC, k, stride, pad},
		W: NewWithGrad(outC, inC, k, k), B: NewWithGrad(outC)}
	c.W.KaimingInit(rng, inC*k*k)
	return c
}

// Block is the convolution's ConvKernel: the GEMM alone, at slope 1.
func (c *Conv2D) Block(panel []float32, ldb int, y []float32, ldc, u int) {
	kdim := c.InC * c.K * c.K
	gemm(c.W.Data, kdim, c.B.Data, panel, ldb, y, ldc, c.OutC, kdim, u, 1)
}

// Forward computes the convolution. The input must be [N, InC, H, W].
func (c *Conv2D) Forward(x *Tensor, train bool) *Tensor {
	if train {
		c.lastIn = x
	}
	return c.ForwardCancel(x, nil, nil)
}

// ForwardPooled is ForwardCancel with no cancellation.
func (c *Conv2D) ForwardPooled(x *Tensor, p *Pool) *Tensor {
	return c.ForwardCancel(x, p, nil)
}

// ForwardCancel is the inference contract the convolutions (this and
// FusedConvBNAct) share: the output buffer comes from p (contents fully
// overwritten; a nil pool allocates fresh), no backward bookkeeping is
// recorded, and done is a cooperative cancellation hook — once it closes,
// no further column block is started and the call returns early. The
// returned tensor is then only partially written: the caller must observe
// done itself and discard the buffer (returning it to the pool is fine;
// pooled contents are dirty by contract). A nil done never aborts.
func (c *Conv2D) ForwardCancel(x *Tensor, p *Pool, done <-chan struct{}) *Tensor {
	return forward(c, x.Data, x.Shape[0], x.Shape[2], x.Shape[3], p, done)
}

// Backward computes input gradients and accumulates weight/bias gradients.
func (c *Conv2D) Backward(dy *Tensor) *Tensor {
	x := c.lastIn
	if x == nil {
		panic("tensor: Conv2D.Backward before Forward(train=true)")
	}
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	OH, OW := dy.Shape[2], dy.Shape[3]
	dx := New(N, C, H, W)
	for n := 0; n < N; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			outBase := ((n*c.OutC + oc) * OH) * OW
			for oh := 0; oh < OH; oh++ {
				ihBase := oh*c.Stride - c.Pad
				outRow := outBase + oh*OW
				for ow := 0; ow < OW; ow++ {
					g := dy.Data[outRow+ow]
					if g == 0 {
						continue
					}
					c.B.Grad[oc] += g
					iwBase := ow*c.Stride - c.Pad
					for ic := 0; ic < c.InC; ic++ {
						wBase := ((oc*c.InC + ic) * c.K) * c.K
						inBase := ((n*C + ic) * H) * W
						for kh := 0; kh < c.K; kh++ {
							ih := ihBase + kh
							if ih < 0 || ih >= H {
								continue
							}
							inRow := inBase + ih*W
							wRow := wBase + kh*c.K
							for kw := 0; kw < c.K; kw++ {
								iw := iwBase + kw
								if iw < 0 || iw >= W {
									continue
								}
								c.W.Grad[wRow+kw] += float32(g * x.Data[inRow+iw])
								dx.Data[inRow+iw] += float32(g * c.W.Data[wRow+kw])
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns the trainable tensors.
func (c *Conv2D) Params() []*Tensor { return []*Tensor{c.W, c.B} }

// BatchNorm2D normalises each channel over (N, H, W) with trainable scale
// and shift, tracking running statistics for inference. Folding these
// statistics into the preceding convolution is the "constant folding" step
// of the ncnn port (internal/quant).
type BatchNorm2D struct {
	C        int
	Gamma    *Tensor // [C]
	Beta     *Tensor // [C]
	RunMean  []float32
	RunVar   []float32
	Momentum float32
	Eps      float32

	lastIn   *Tensor
	lastNorm []float32
	batchStd []float32
}

// NewBatchNorm2D builds a batch-norm layer for c channels.
func NewBatchNorm2D(c int) *BatchNorm2D {
	bn := &BatchNorm2D{C: c, Gamma: NewWithGrad(c), Beta: NewWithGrad(c),
		RunMean: make([]float32, c), RunVar: make([]float32, c),
		Momentum: 0.1, Eps: 1e-5}
	bn.Gamma.Fill(1)
	for i := range bn.RunVar {
		bn.RunVar[i] = 1
	}
	return bn
}

// Forward normalises x ([N, C, H, W]).
func (bn *BatchNorm2D) Forward(x *Tensor, train bool) *Tensor {
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if C != bn.C {
		panic(fmt.Sprintf("tensor: batchnorm expects %d channels, got %d", bn.C, C))
	}
	y := New(N, C, H, W)
	plane := H * W
	if !train {
		for c := 0; c < C; c++ {
			mean, variance := bn.RunMean[c], bn.RunVar[c]
			std := float32(math.Sqrt(float64(variance + bn.Eps)))
			g, b := bn.Gamma.Data[c], bn.Beta.Data[c]
			for n := 0; n < N; n++ {
				base := ((n*C + c) * plane)
				for i := 0; i < plane; i++ {
					norm := (x.Data[base+i] - mean) / std
					y.Data[base+i] = float32(g*norm) + b
				}
			}
		}
		return y
	}
	count := float32(N * plane)
	bn.lastIn = x
	if cap(bn.lastNorm) < len(x.Data) {
		bn.lastNorm = make([]float32, len(x.Data))
	}
	bn.lastNorm = bn.lastNorm[:len(x.Data)]
	if bn.batchStd == nil {
		bn.batchStd = make([]float32, C)
	}
	for c := 0; c < C; c++ {
		var sum float32
		for n := 0; n < N; n++ {
			base := ((n*C + c) * plane)
			for i := 0; i < plane; i++ {
				sum += x.Data[base+i]
			}
		}
		mean := sum / count
		var sq float32
		for n := 0; n < N; n++ {
			base := ((n*C + c) * plane)
			for i := 0; i < plane; i++ {
				d := x.Data[base+i] - mean
				sq += float32(d * d)
			}
		}
		variance := sq / count
		bn.RunMean[c] = float32((1-bn.Momentum)*bn.RunMean[c]) + float32(bn.Momentum*mean)
		bn.RunVar[c] = float32((1-bn.Momentum)*bn.RunVar[c]) + float32(bn.Momentum*variance)
		std := float32(math.Sqrt(float64(variance + bn.Eps)))
		bn.batchStd[c] = std
		g, b := bn.Gamma.Data[c], bn.Beta.Data[c]
		for n := 0; n < N; n++ {
			base := ((n*C + c) * plane)
			for i := 0; i < plane; i++ {
				norm := (x.Data[base+i] - mean) / std
				bn.lastNorm[base+i] = norm
				y.Data[base+i] = float32(g*norm) + b
			}
		}
	}
	return y
}

// Backward propagates through the normalisation.
func (bn *BatchNorm2D) Backward(dy *Tensor) *Tensor {
	x := bn.lastIn
	if x == nil {
		panic("tensor: BatchNorm2D.Backward before Forward(train=true)")
	}
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := H * W
	count := float32(N * plane)
	dx := New(N, C, H, W)
	for c := 0; c < C; c++ {
		var sumDy, sumDyNorm float32
		for n := 0; n < N; n++ {
			base := ((n*C + c) * plane)
			for i := 0; i < plane; i++ {
				g := dy.Data[base+i]
				sumDy += g
				sumDyNorm += float32(g * bn.lastNorm[base+i])
			}
		}
		bn.Beta.Grad[c] += sumDy
		bn.Gamma.Grad[c] += sumDyNorm
		gamma := bn.Gamma.Data[c]
		invStd := 1 / bn.batchStd[c]
		for n := 0; n < N; n++ {
			base := ((n*C + c) * plane)
			for i := 0; i < plane; i++ {
				norm := bn.lastNorm[base+i]
				dx.Data[base+i] = gamma * invStd * (dy.Data[base+i] - sumDy/count - norm*sumDyNorm/count)
			}
		}
	}
	return dx
}

// Params returns gamma and beta.
func (bn *BatchNorm2D) Params() []*Tensor { return []*Tensor{bn.Gamma, bn.Beta} }

// LeakyReLU is max(x, slope*x), the YOLO-family activation.
type LeakyReLU struct {
	Slope  float32
	lastIn *Tensor
}

// NewLeakyReLU builds the activation with the conventional 0.1 slope.
func NewLeakyReLU() *LeakyReLU { return &LeakyReLU{Slope: 0.1} }

// Forward applies the activation elementwise.
func (l *LeakyReLU) Forward(x *Tensor, train bool) *Tensor {
	y := New(x.Shape...)
	if train {
		l.lastIn = x
	}
	for i, v := range x.Data {
		if v >= 0 {
			y.Data[i] = v
		} else {
			y.Data[i] = l.Slope * v
		}
	}
	return y
}

// Backward gates the gradient by the sign of the stored input.
func (l *LeakyReLU) Backward(dy *Tensor) *Tensor {
	if l.lastIn == nil {
		panic("tensor: LeakyReLU.Backward before Forward(train=true)")
	}
	dx := New(dy.Shape...)
	for i, v := range l.lastIn.Data {
		if v >= 0 {
			dx.Data[i] = dy.Data[i]
		} else {
			dx.Data[i] = l.Slope * dy.Data[i]
		}
	}
	return dx
}

// Params returns nil: the activation has no parameters.
func (l *LeakyReLU) Params() []*Tensor { return nil }

// MaxPool2D is a 2x2, stride-2 max pooling layer, used by the RCNN-style
// backbones.
type MaxPool2D struct {
	argmax []int
	inLen  int
}

// NewMaxPool2D builds the pooling layer.
func NewMaxPool2D() *MaxPool2D { return &MaxPool2D{} }

// Forward pools each 2x2 block to its maximum, recording argmax positions
// for the backward pass only when train is set.
func (p *MaxPool2D) Forward(x *Tensor, train bool) *Tensor {
	N, C, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	OH, OW := H/2, W/2
	y := New(N, C, OH, OW)
	if train {
		if cap(p.argmax) < len(y.Data) {
			p.argmax = make([]int, len(y.Data))
		}
		p.argmax = p.argmax[:len(y.Data)]
		p.inLen = len(x.Data)
	}
	for n := 0; n < N; n++ {
		for c := 0; c < C; c++ {
			inBase := ((n*C + c) * H) * W
			outBase := ((n*C + c) * OH) * OW
			for oh := 0; oh < OH; oh++ {
				for ow := 0; ow < OW; ow++ {
					i00 := inBase + (2*oh)*W + 2*ow
					best, bestIdx := x.Data[i00], i00
					for _, idx := range [3]int{i00 + 1, i00 + W, i00 + W + 1} {
						if x.Data[idx] > best {
							best, bestIdx = x.Data[idx], idx
						}
					}
					o := outBase + oh*OW + ow
					y.Data[o] = best
					if train {
						p.argmax[o] = bestIdx
					}
				}
			}
		}
	}
	return y
}

// Backward routes gradients to the argmax positions.
func (p *MaxPool2D) Backward(dy *Tensor) *Tensor {
	if p.inLen == 0 {
		panic("tensor: MaxPool2D.Backward before Forward(train=true)")
	}
	dx := &Tensor{Shape: []int{dy.Shape[0], dy.Shape[1], dy.Shape[2] * 2, dy.Shape[3] * 2},
		Data: make([]float32, p.inLen)}
	for o, idx := range p.argmax {
		dx.Data[idx] += dy.Data[o]
	}
	return dx
}

// Params returns nil: pooling has no parameters.
func (p *MaxPool2D) Params() []*Tensor { return nil }

// Linear is a fully connected layer y = xW^T + b over the flattened input.
type Linear struct {
	In, Out int
	W       *Tensor // [Out, In]
	B       *Tensor // [Out]
	lastIn  *Tensor
}

// NewLinear builds a fully connected layer with Kaiming init.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	l := &Linear{In: in, Out: out, W: NewWithGrad(out, in), B: NewWithGrad(out)}
	l.W.KaimingInit(rng, in)
	return l
}

// Forward treats x as [N, In] (any trailing shape is flattened).
func (l *Linear) Forward(x *Tensor, train bool) *Tensor {
	N := x.Shape[0]
	if x.Len()/N != l.In {
		panic(fmt.Sprintf("tensor: linear expects %d features, got %d", l.In, x.Len()/N))
	}
	if train {
		l.lastIn = x
	}
	y := New(N, l.Out)
	for n := 0; n < N; n++ {
		xRow := x.Data[n*l.In : (n+1)*l.In]
		for o := 0; o < l.Out; o++ {
			wRow := l.W.Data[o*l.In : (o+1)*l.In]
			sum := l.B.Data[o]
			for i, xv := range xRow {
				sum += float32(wRow[i] * xv)
			}
			y.Data[n*l.Out+o] = sum
		}
	}
	return y
}

// Backward accumulates weight gradients and returns input gradients shaped
// like the flattened input.
func (l *Linear) Backward(dy *Tensor) *Tensor {
	if l.lastIn == nil {
		panic("tensor: Linear.Backward before Forward(train=true)")
	}
	N := dy.Shape[0]
	dx := New(N, l.In)
	for n := 0; n < N; n++ {
		xRow := l.lastIn.Data[n*l.In : (n+1)*l.In]
		dxRow := dx.Data[n*l.In : (n+1)*l.In]
		for o := 0; o < l.Out; o++ {
			g := dy.Data[n*l.Out+o]
			if g == 0 {
				continue
			}
			l.B.Grad[o] += g
			wRow := l.W.Data[o*l.In : (o+1)*l.In]
			gRow := l.W.Grad[o*l.In : (o+1)*l.In]
			for i := range wRow {
				gRow[i] += float32(g * xRow[i])
				dxRow[i] += float32(g * wRow[i])
			}
		}
	}
	return dx
}

// Params returns the trainable tensors.
func (l *Linear) Params() []*Tensor { return []*Tensor{l.W, l.B} }

// Sigmoid computes 1/(1+exp(-v)) for a raw value. Detector heads apply it to
// objectness and class logits.
func Sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}
