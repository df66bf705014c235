package rcnn

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// Variant selects a Table V baseline.
type Variant struct {
	// Refine enables the box-regression head ("Mask" variants).
	Refine bool
	// Residual selects the ResNet-ish backbone over the VGG-ish one.
	Residual bool
}

// Name returns the Table V row name.
func (v Variant) Name() string {
	family := "Faster RCNN"
	if v.Refine {
		family = "Mask RCNN"
	}
	backbone := "VGG16"
	if v.Residual {
		backbone = "ResNet50"
	}
	return family + "+" + backbone
}

// Slug returns the registry-friendly backend name ("mask-rcnn-resnet50").
func (v Variant) Slug() string {
	family := "faster-rcnn"
	if v.Refine {
		family = "mask-rcnn"
	}
	backbone := "vgg16"
	if v.Residual {
		backbone = "resnet50"
	}
	return family + "-" + backbone
}

// Variants lists the four Table V baselines in the paper's row order.
var Variants = []Variant{
	{Refine: false, Residual: false},
	{Refine: false, Residual: true},
	{Refine: true, Residual: false},
	{Refine: true, Residual: true},
}

// cropSize is the proposal crop resolution fed to the classifier.
const cropSize = 24

// numOutputs: background/AGO/UPO class logits plus 4 box deltas.
const (
	numClasses = 3 // background, AGO, UPO
	numDeltas  = 4
)

// Model is one two-stage detector.
type Model struct {
	Variant  Variant
	backbone *nn.Sequential
	headCls  *tensor.Linear
	headBox  *tensor.Linear
	featLen  int
}

// New builds an untrained two-stage model.
func New(variant Variant, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	// No batch norm here: proposal crops are classified one at a time, so
	// batch statistics would differ wildly between training and inference.
	var layers []tensor.Layer
	layers = append(layers, tensor.NewConv2D(rng, 3, 8, 3, 1, 1), tensor.NewLeakyReLU(), tensor.NewMaxPool2D())  // 24 -> 12
	layers = append(layers, tensor.NewConv2D(rng, 8, 16, 3, 1, 1), tensor.NewLeakyReLU(), tensor.NewMaxPool2D()) // 12 -> 6
	if variant.Residual {
		layers = append(layers, nn.NewResidual(nn.NewSequential(tensor.NewConv2D(rng, 16, 16, 3, 1, 1), tensor.NewLeakyReLU())))
	} else {
		layers = append(layers, tensor.NewConv2D(rng, 16, 16, 3, 1, 1), tensor.NewLeakyReLU())
	}
	featLen := 16 * 6 * 6
	return &Model{
		Variant:  variant,
		backbone: nn.NewSequential(layers...),
		headCls:  tensor.NewLinear(rng, featLen, numClasses),
		headBox:  tensor.NewLinear(rng, featLen, numDeltas),
		featLen:  featLen,
	}
}

// params returns all trainable tensors.
func (m *Model) params() []*tensor.Tensor {
	out := m.backbone.Params()
	out = append(out, m.headCls.Params()...)
	out = append(out, m.headBox.Params()...)
	return out
}

// crop extracts a proposal (with 2px context) as a normalised input tensor.
func crop(c *render.Canvas, r geom.Rect) *tensor.Tensor {
	padded := r.Inset(-2).Clamp(c.Bounds())
	if padded.Empty() {
		padded = geom.Rect{X: 0, Y: 0, W: 1, H: 1}
	}
	sub := c.SubImage(padded).Resize(cropSize, cropSize)
	x := tensor.New(1, 3, cropSize, cropSize)
	plane := cropSize * cropSize
	for y := 0; y < cropSize; y++ {
		for xx := 0; xx < cropSize; xx++ {
			i := 4 * (y*cropSize + xx)
			o := y*cropSize + xx
			x.Data[o] = float32(sub.Pix[i]) / 255
			x.Data[plane+o] = float32(sub.Pix[i+1]) / 255
			x.Data[2*plane+o] = float32(sub.Pix[i+2]) / 255
		}
	}
	return x
}

// forward runs the backbone and heads on one crop.
func (m *Model) forward(x *tensor.Tensor, train bool) (cls, box *tensor.Tensor) {
	f := m.backbone.Forward(x, train)
	flat := &tensor.Tensor{Shape: []int{1, m.featLen}, Data: f.Data}
	return m.headCls.Forward(flat, train), m.headBox.Forward(flat, train)
}

// softmax over a class logit row.
func softmax(logits []float32) []float64 {
	maxL := logits[0]
	for _, v := range logits {
		if v > maxL {
			maxL = v
		}
	}
	exp := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		exp[i] = math.Exp(float64(v - maxL))
		sum += exp[i]
	}
	for i := range exp {
		exp[i] /= sum
	}
	return exp
}

// applyDeltas refines a proposal box with predicted (dx, dy, dw, dh) in the
// standard RCNN parameterisation.
func applyDeltas(r geom.Rect, d []float32) geom.BoxF {
	b := geom.BoxFromRect(r)
	cx := b.CenterX() + float64(d[0])*b.W
	cy := b.CenterY() + float64(d[1])*b.H
	w := b.W * math.Exp(clamp(float64(d[2]), -1, 1))
	h := b.H * math.Exp(clamp(float64(d[3]), -1, 1))
	return geom.BoxF{
		X: math.Round(cx - w/2), Y: math.Round(cy - h/2),
		W: math.Round(w), H: math.Round(h),
	}
}

// lumaOf converts a canvas to a normalised luminance plane.
func lumaOf(c *render.Canvas) []float32 {
	out := make([]float32, c.W*c.H)
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			out[y*c.W+x] = float32(c.At(x, y).Luma()) / 255
		}
	}
	return out
}

// predict is the two-stage pipeline with a cooperative cancellation
// checkpoint between proposal crops — the natural granularity of a two-stage
// detector, where each proposal costs a full (small) backbone forward. On
// cancel it returns ctx.Err() and no detections.
func (m *Model) predict(ctx context.Context, c *render.Canvas, confThresh float64) ([]metrics.Detection, error) {
	var dets []metrics.Detection
	for _, r := range Propose(c) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cls, box := m.forward(crop(c, r), false)
		probs := softmax(cls.Data)
		bestCls, bestP := 0, probs[0]
		for ci := 1; ci < numClasses; ci++ {
			if probs[ci] > bestP {
				bestCls, bestP = ci, probs[ci]
			}
		}
		if bestCls == 0 || bestP < confThresh {
			continue
		}
		b := geom.BoxFromRect(r)
		if m.Variant.Refine {
			// The Mask-family refinement: regressed deltas followed by
			// mask-style boundary snapping.
			b = applyDeltas(r, box.Data)
			b = yolite.RefineBox(lumaOf(c), c.W, c.H, b)
		}
		dets = append(dets, metrics.Detection{
			Class: dataset.Class(bestCls - 1),
			B:     b,
			Score: bestP,
		})
	}
	return metrics.NMS(dets, 0.2), nil
}

// PredictBatchCtx is the detector seam. The two-stage pipeline needs pixels,
// not tensors, so each item of x (a yolite.CanvasToTensor-style batch) is
// reconstructed as a canvas and run on its own — there is no shared forward
// to amortise — with the context checked between items and, inside each,
// between proposal crops.
func (m *Model) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	out := make([][]metrics.Detection, x.Shape[0])
	for n := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dets, err := m.predict(ctx, tensorItemToCanvas(x, n), confThresh)
		if err != nil {
			return nil, err
		}
		out[n] = dets
	}
	return out, nil
}

// tensorItemToCanvas reconstructs batch item n of a yolite.CanvasToTensor
// tensor as a canvas.
func tensorItemToCanvas(x *tensor.Tensor, n int) *render.Canvas {
	c := render.NewCanvas(yolite.InputW, yolite.InputH)
	plane := yolite.InputH * yolite.InputW
	base := n * 3 * plane
	for y := 0; y < yolite.InputH; y++ {
		for xx := 0; xx < yolite.InputW; xx++ {
			o := y*yolite.InputW + xx
			c.Set(xx, y, render.Color{
				R: uint8(x.Data[base+o]*255 + 0.5),
				G: uint8(x.Data[base+plane+o]*255 + 0.5),
				B: uint8(x.Data[base+2*plane+o]*255 + 0.5),
				A: 255,
			})
		}
	}
	return c
}

var _ yolite.Predictor = (*Model)(nil)

// Name identifies the backend in registries and result tables.
func (m *Model) Name() string { return m.Variant.Slug() }

// trainLR is the Adam learning rate of two-stage training.
const trainLR = 2e-3

// TrainConfig controls two-stage training. The zero value is the full
// experiment configuration.
type TrainConfig struct {
	// Epochs over the proposal set. Zero means 12.
	Epochs int
	// Seed. Zero means 1.
	Seed int64
	// Progress receives (epoch, loss) when non-nil.
	Progress func(int, float64)
}

func (c TrainConfig) epochs() int {
	if c.Epochs == 0 {
		return 12
	}
	return c.Epochs
}

func (c TrainConfig) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// trainExample is one labelled proposal crop.
type trainExample struct {
	input  *tensor.Tensor
	cls    int // 0 background, 1 AGO, 2 UPO
	deltas [numDeltas]float32
}

// buildExamples labels proposals on each sample by IoU against ground truth
// (>= 0.5 positive, the standard RCNN protocol).
func buildExamples(samples []*dataset.Sample, rng *rand.Rand) []trainExample {
	var out []trainExample
	for _, s := range samples {
		props := Propose(s.Input)
		for _, r := range props {
			b := geom.BoxFromRect(r)
			bestIoU, bestCls := 0.0, 0
			var bestGT geom.BoxF
			for _, gt := range s.Boxes {
				if iou := b.IoU(gt.B); iou > bestIoU {
					bestIoU = iou
					bestCls = int(gt.Class) + 1
					bestGT = gt.B
				}
			}
			ex := trainExample{input: crop(s.Input, r)}
			if bestIoU >= 0.5 {
				ex.cls = bestCls
				ex.deltas = [numDeltas]float32{
					float32((bestGT.CenterX() - b.CenterX()) / b.W),
					float32((bestGT.CenterY() - b.CenterY()) / b.H),
					float32(math.Log(bestGT.W / b.W)),
					float32(math.Log(bestGT.H / b.H)),
				}
				// Oversample positives: proposals are overwhelmingly
				// background, and an unbalanced set collapses the
				// classifier onto the background prior.
				out = append(out, ex, ex, ex)
			} else if bestIoU > 0.3 {
				continue // ambiguous: neither positive nor clean negative
			} else if rng.Float64() > 0.25 {
				continue // subsample easy negatives
			}
			out = append(out, ex)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Train fits a two-stage model on the samples.
func Train(variant Variant, samples []*dataset.Sample, cfg TrainConfig) *Model {
	m := New(variant, cfg.seed())
	rng := rand.New(rand.NewSource(cfg.seed() + 500))
	examples := buildExamples(samples, rng)
	if len(examples) == 0 {
		return m
	}
	opt := tensor.NewAdam(m.params(), trainLR)
	for epoch := 0; epoch < cfg.epochs(); epoch++ {
		rng.Shuffle(len(examples), func(i, j int) { examples[i], examples[j] = examples[j], examples[i] })
		var epochLoss float64
		for _, ex := range examples {
			cls, box := m.forward(ex.input, true)
			probs := softmax(cls.Data)
			// Cross-entropy gradient.
			dCls := tensor.New(1, numClasses)
			for ci := 0; ci < numClasses; ci++ {
				t := float32(0)
				if ci == ex.cls {
					t = 1
				}
				dCls.Data[ci] = float32(probs[ci]) - t
			}
			epochLoss += -math.Log(math.Max(probs[ex.cls], 1e-9))
			// Box deltas only for positive crops (smooth-ish L2).
			dBox := tensor.New(1, numDeltas)
			if ex.cls != 0 {
				for di := 0; di < numDeltas; di++ {
					diff := box.Data[di] - ex.deltas[di]
					dBox.Data[di] = 2 * diff
					epochLoss += float64(diff) * float64(diff)
				}
			}
			dFlatC := m.headCls.Backward(dCls)
			dFlatB := m.headBox.Backward(dBox)
			dFeat := tensor.New(1, 16, 6, 6)
			for i := range dFeat.Data {
				dFeat.Data[i] = dFlatC.Data[i] + dFlatB.Data[i]
			}
			m.backbone.Backward(dFeat)
			tensor.ClipGrad(m.params(), 10)
			opt.Step()
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss/float64(len(examples)))
		}
	}
	return m
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// String describes the model.
func (m *Model) String() string { return fmt.Sprintf("rcnn(%s)", m.Variant.Name()) }
