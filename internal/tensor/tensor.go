// Package tensor implements the dense float32 tensors and the
// neural-network primitives (convolution, batch normalisation, pooling,
// fully connected layers, activations, losses, optimisers) that the
// reproduction's detectors are built from.
//
// The paper trains YOLOv5 with PyTorch on a GPU server; this repository has
// neither, so the package provides hand-written forward AND backward passes
// for every op, optimised for a single CPU core: NCHW layout, contiguous
// inner loops over width, and no allocations inside the hot loops.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense float32 array in NCHW layout (for 4-D data) or any
// row-major layout described by Shape. Grad, when non-nil, accumulates the
// gradient of a scalar loss with respect to Data.
type Tensor struct {
	Shape []int
	Data  []float32
	Grad  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// Print a copy: handing shape itself to Sprintf would make the
			// parameter escape, heap-allocating the variadic slice at every
			// call site — including Pool.Get's per-layer inference calls.
			panic(fmt.Sprintf("tensor: invalid dimension %d in %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// NewWithGrad allocates a zero tensor that also tracks gradients, for
// trainable parameters.
func NewWithGrad(shape ...int) *Tensor {
	t := New(shape...)
	t.Grad = make([]float32, len(t.Data))
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Clone returns a deep copy (gradient buffer excluded).
func (t *Tensor) Clone() *Tensor {
	out := New(t.Shape...)
	copy(out.Data, t.Data)
	return out
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// KaimingInit fills t with Kaiming-uniform noise for a layer with the given
// fan-in, the initialisation YOLO-family backbones use for leaky-ReLU
// networks.
func (t *Tensor) KaimingInit(rng *rand.Rand, fanIn int) {
	if fanIn <= 0 {
		panic("tensor: KaimingInit requires positive fan-in")
	}
	bound := float32(math.Sqrt(6.0 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * bound
	}
}
