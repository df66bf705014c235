// Package nn provides the network containers the detectors are assembled
// from (sequential stacks and residual blocks) plus weight serialisation, so
// trained models can be shipped with the repository and loaded on the
// simulated device — the counterpart of the paper's PyTorch-to-ONNX-to-ncnn
// model-porting pipeline (Section IV-C).
package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/tensor"
)

// Sequential chains layers; the output of each feeds the next.
type Sequential struct {
	Layers []tensor.Layer
}

var _ tensor.Layer = (*Sequential)(nil)

// NewSequential builds a stack from the given layers.
func NewSequential(layers ...tensor.Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs the stack in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the stack in reverse.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns every trainable tensor in the stack.
func (s *Sequential) Params() []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Residual wraps a body with an identity skip connection: y = body(x) + x.
// The body must preserve the input shape. This is the structural difference
// between the "VGG-ish" and "ResNet-ish" backbones of the RCNN baselines
// (Table V).
type Residual struct {
	Body tensor.Layer
}

var _ tensor.Layer = (*Residual)(nil)

// NewResidual wraps body in a skip connection.
func NewResidual(body tensor.Layer) *Residual { return &Residual{Body: body} }

// Forward computes body(x) + x.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.Body.Forward(x, train)
	if !y.SameShape(x) {
		panic(fmt.Sprintf("nn: residual body changed shape %v -> %v", x.Shape, y.Shape))
	}
	out := tensor.New(y.Shape...)
	for i := range out.Data {
		out.Data[i] = y.Data[i] + x.Data[i]
	}
	return out
}

// Backward adds the skip gradient to the body gradient.
func (r *Residual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := r.Body.Backward(dy)
	out := tensor.New(dy.Shape...)
	for i := range out.Data {
		out.Data[i] = dx.Data[i] + dy.Data[i]
	}
	return out
}

// Params returns the body's parameters.
func (r *Residual) Params() []*tensor.Tensor { return r.Body.Params() }

// snapshot is the gob wire format for weights: parameter payloads in layer
// order plus batch-norm running statistics.
type snapshot struct {
	Params  [][]float32
	RunMean [][]float32
	RunVar  [][]float32
}

// collectBN walks the layer tree collecting batch-norm layers in order.
func collectBN(l tensor.Layer) []*tensor.BatchNorm2D {
	switch v := l.(type) {
	case *tensor.BatchNorm2D:
		return []*tensor.BatchNorm2D{v}
	case *Sequential:
		var out []*tensor.BatchNorm2D
		for _, child := range v.Layers {
			out = append(out, collectBN(child)...)
		}
		return out
	case *Residual:
		return collectBN(v.Body)
	default:
		return nil
	}
}

// SaveWeights writes every parameter and batch-norm statistic of net to w.
func SaveWeights(w io.Writer, net tensor.Layer) error {
	var snap snapshot
	for _, p := range net.Params() {
		snap.Params = append(snap.Params, p.Data)
	}
	for _, bn := range collectBN(net) {
		snap.RunMean = append(snap.RunMean, bn.RunMean)
		snap.RunVar = append(snap.RunVar, bn.RunVar)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("nn: encoding weights: %w", err)
	}
	return nil
}

// LoadWeights reads weights written by SaveWeights into net, which must have
// the identical architecture.
func LoadWeights(r io.Reader, net tensor.Layer) error {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("nn: decoding weights: %w", err)
	}
	params := net.Params()
	if len(snap.Params) != len(params) {
		return fmt.Errorf("nn: weight file has %d parameter tensors, model has %d", len(snap.Params), len(params))
	}
	for i, p := range params {
		if len(snap.Params[i]) != len(p.Data) {
			return fmt.Errorf("nn: parameter %d has %d values, model expects %d", i, len(snap.Params[i]), len(p.Data))
		}
		copy(p.Data, snap.Params[i])
	}
	bns := collectBN(net)
	if len(snap.RunMean) != len(bns) {
		return fmt.Errorf("nn: weight file has %d batch-norm stats, model has %d", len(snap.RunMean), len(bns))
	}
	for i, bn := range bns {
		if len(snap.RunMean[i]) != len(bn.RunMean) {
			return fmt.Errorf("nn: batch-norm %d has %d channels, model expects %d", i, len(snap.RunMean[i]), len(bn.RunMean))
		}
		copy(bn.RunMean, snap.RunMean[i])
		copy(bn.RunVar, snap.RunVar[i])
	}
	return nil
}

// SaveWeightsFile writes weights to path, creating or truncating it.
func SaveWeightsFile(path string, net tensor.Layer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: creating weight file: %w", err)
	}
	defer f.Close()
	if err := SaveWeights(f, net); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("nn: closing weight file: %w", err)
	}
	return nil
}

// LoadWeightsFile reads weights from path into net.
func LoadWeightsFile(path string, net tensor.Layer) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("nn: opening weight file: %w", err)
	}
	defer f.Close()
	return LoadWeights(f, net)
}

// ConvBNAct is the conv → batch-norm → leaky-ReLU building block shared by
// every backbone in the reproduction, mirroring YOLOv5's Conv module.
func ConvBNAct(conv *tensor.Conv2D) *Sequential {
	return NewSequential(conv, tensor.NewBatchNorm2D(conv.OutC), tensor.NewLeakyReLU())
}

// ConvBNActParts pulls the conv, batch-norm, and activation back out of a
// ConvBNAct block — the accessor inference-time fusion (tensor.FuseConvBNAct)
// and the int8 port both extract through. It panics if seq is not a
// ConvBNAct-shaped sequential.
func ConvBNActParts(seq *Sequential) (*tensor.Conv2D, *tensor.BatchNorm2D, *tensor.LeakyReLU) {
	var conv *tensor.Conv2D
	var bn *tensor.BatchNorm2D
	var act *tensor.LeakyReLU
	for _, l := range seq.Layers {
		switch v := l.(type) {
		case *tensor.Conv2D:
			conv = v
		case *tensor.BatchNorm2D:
			bn = v
		case *tensor.LeakyReLU:
			act = v
		}
	}
	if conv == nil || bn == nil || act == nil {
		panic("nn: block is not a ConvBNAct sequential")
	}
	return conv, bn, act
}
