package yolite

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Loss weights, following the YOLO convention of boosting box regression and
// damping the abundant negative cells.
const (
	wBox   = 2.0
	wObj   = 2.0
	wNoObj = 0.5
	// huberDelta is the transition point between quadratic and linear box
	// loss, in units of "fraction of the anchor size".
	huberDelta = 0.5
)

// trainBatch is the minibatch size in images.
const trainBatch = 8

// huber returns the Huber loss and its derivative for error e (pixels).
func huber(e float64) (loss, grad float64) {
	if e > huberDelta {
		return float64(2*huberDelta*e) - huberDelta*huberDelta, 2 * huberDelta
	}
	if e < -huberDelta {
		return float64(-2*huberDelta*e) - huberDelta*huberDelta, -2 * huberDelta
	}
	return e * e, 2 * e
}

// target is the encoded ground truth for one head and one batch item.
type target struct {
	// obj[cell] is 1 for cells owning a ground-truth box.
	obj []float32
	// gx/gy are the in-cell centre offsets in (0,1); gw/gh the log size
	// ratios; indexed by cell, valid where obj==1.
	gx, gy, gw, gh []float32
}

// encodeTargets maps ground-truth boxes of the head's class onto its grid.
// Like YOLOv5, each box is assigned to its centre cell plus the horizontally
// and vertically nearest neighbour cells: near-boundary centres stay
// learnable (offset targets may lie in [-0.5, 1.5]) and neighbour-cell fires
// at inference converge on the same box, where NMS removes them. When two
// boxes claim one cell the larger one wins (the paper notes some screens
// have two UPOs; they almost never share a cell).
func encodeTargets(boxes []dataset.Box, spec HeadSpec) target {
	gh, gw := spec.GridSize()
	t := target{
		obj: make([]float32, gh*gw),
		gx:  make([]float32, gh*gw),
		gy:  make([]float32, gh*gw),
		gw:  make([]float32, gh*gw),
		gh:  make([]float32, gh*gw),
	}
	area := make([]float64, gh*gw)
	assign := func(col, row int, b dataset.Box) {
		if col < 0 || col >= gw || row < 0 || row >= gh {
			return
		}
		cell := row*gw + col
		if t.obj[cell] == 1 && b.B.Area() <= area[cell] {
			return
		}
		area[cell] = b.B.Area()
		t.obj[cell] = 1
		t.gx[cell] = float32(b.B.CenterX()/float64(spec.Stride) - float64(col))
		t.gy[cell] = float32(b.B.CenterY()/float64(spec.Stride) - float64(row))
		t.gw[cell] = float32(math.Log(b.B.W / spec.AnchorW))
		t.gh[cell] = float32(math.Log(b.B.H / spec.AnchorH))
	}
	for _, b := range boxes {
		if b.Class != spec.Class || b.B.W <= 0 || b.B.H <= 0 {
			continue
		}
		cx, cy := b.B.CenterX(), b.B.CenterY()
		col := clampi(int(cx)/spec.Stride, 0, gw-1)
		row := clampi(int(cy)/spec.Stride, 0, gh-1)
		assign(col, row, b)
		fx := cx/float64(spec.Stride) - float64(col)
		fy := cy/float64(spec.Stride) - float64(row)
		if fx < 0.5 {
			assign(col-1, row, b)
		} else {
			assign(col+1, row, b)
		}
		if fy < 0.5 {
			assign(col, row-1, b)
		} else {
			assign(col, row+1, b)
		}
	}
	return t
}

func clampi(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// headLoss computes the loss for one head over a batch and fills dOut with
// its gradient. Returns the summed loss.
//
// Box position errors are measured relative to the anchor size (a strict-IoU
// protocol cares about error as a fraction of box size, so this puts equal
// localisation pressure on both heads); log-sizes are already relative.
// A Huber loss bounds the gradients, and sigmoid-free linear offsets avoid
// saturated gradients when a centre sits near a cell boundary.
func headLoss(out *tensor.Tensor, targets []target, spec HeadSpec, dOut *tensor.Tensor) float64 {
	n := out.Shape[0]
	gh, gw := out.Shape[2], out.Shape[3]
	plane := gh * gw
	posScaleX := float64(spec.Stride) / spec.AnchorW
	posScaleY := float64(spec.Stride) / spec.AnchorH
	var loss float64
	for bi := 0; bi < n; bi++ {
		t := targets[bi]
		base := bi * 5 * plane
		for cell := 0; cell < plane; cell++ {
			objLogit := out.Data[base+cell]
			p := tensor.Sigmoid(objLogit)
			isPos := t.obj[cell] == 1
			// BCE-with-logits on objectness.
			w := float32(wNoObj)
			y := float32(0)
			if isPos {
				w = wObj
				y = 1
			}
			loss += float64(float64(w) * bceWithLogits(objLogit, y))
			dOut.Data[base+cell] = w * (p - y)
			if !isPos {
				continue
			}
			// Box regression at positive cells, in pixel units.
			tx := float64(out.Data[base+plane+cell])
			ty := float64(out.Data[base+2*plane+cell])
			tw := float64(out.Data[base+3*plane+cell])
			th := float64(out.Data[base+4*plane+cell])
			// The scaled errors are rounded before huber doubles them: arm64
			// would fuse the scaling into its 2*e (e + e) otherwise.
			lx, gx := huber(float64((tx - float64(t.gx[cell])) * posScaleX))
			ly, gy := huber(float64((ty - float64(t.gy[cell])) * posScaleY))
			lw, gw2 := huber(tw - float64(t.gw[cell]))
			lh, gh2 := huber(th - float64(t.gh[cell]))
			loss += wBox * (lx + ly + lw + lh)
			dOut.Data[base+plane+cell] = float32(wBox * gx * posScaleX)
			dOut.Data[base+2*plane+cell] = float32(wBox * gy * posScaleY)
			dOut.Data[base+3*plane+cell] = float32(wBox * gw2)
			dOut.Data[base+4*plane+cell] = float32(wBox * gh2)
		}
	}
	return loss
}

// bceWithLogits is the numerically stable binary cross entropy.
func bceWithLogits(logit, y float32) float64 {
	// max(x,0) - x*y + log(1+exp(-|x|))
	x := float64(logit)
	m := x
	if m < 0 {
		m = 0
	}
	return m - float64(x*float64(y)) + math.Log1p(math.Exp(-math.Abs(x)))
}

// TrainConfig controls Train. The zero value trains the full-fidelity model
// used by the experiments.
type TrainConfig struct {
	// Epochs over the training set. Zero means 30.
	Epochs int
	// LR is the Adam learning rate. Zero means 3e-3.
	LR float32
	// Seed for shuffling and model init. Zero means 1.
	Seed int64
	// Progress, when non-nil, receives (epoch, meanLoss) after each epoch.
	Progress func(epoch int, loss float64)
}

func (c TrainConfig) epochs() int {
	if c.Epochs == 0 {
		return 30
	}
	return c.Epochs
}

func (c TrainConfig) lr() float32 {
	if c.LR == 0 {
		return 3e-3
	}
	return c.LR
}

func (c TrainConfig) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Train fits a fresh model on the samples and returns it. Training is
// deterministic for a given config and sample order.
func Train(samples []*dataset.Sample, cfg TrainConfig) *Model {
	m := NewModel(cfg.seed())
	TrainInto(m, samples, cfg)
	return m
}

// TrainInto fits an existing model in place (used by fine-tuning ablations).
func TrainInto(m *Model, samples []*dataset.Sample, cfg TrainConfig) {
	rng := rand.New(rand.NewSource(cfg.seed() + 1000))
	opt := tensor.NewAdam(m.Params(), cfg.lr())
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.epochs(); epoch++ {
		// Step learning-rate schedule: 10x drop for the final quarter of
		// training, which is what tightens box regression enough for the
		// strict IoU protocol.
		if epoch == cfg.epochs()*3/4 {
			opt.LR = cfg.lr() / 10
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += trainBatch {
			end := start + trainBatch
			if end > len(idx) {
				end = len(idx)
			}
			batch := make([]*dataset.Sample, 0, end-start)
			for _, i := range idx[start:end] {
				batch = append(batch, samples[i])
			}
			x := BatchToTensor(batch)
			upoOut, agoOut := m.Forward(x, true)
			upoT := make([]target, len(batch))
			agoT := make([]target, len(batch))
			for i, s := range batch {
				upoT[i] = encodeTargets(s.Boxes, UPOHeadSpec)
				agoT[i] = encodeTargets(s.Boxes, AGOHeadSpec)
			}
			dUPO := tensor.New(upoOut.Shape...)
			dAGO := tensor.New(agoOut.Shape...)
			loss := headLoss(upoOut, upoT, UPOHeadSpec, dUPO) + headLoss(agoOut, agoT, AGOHeadSpec, dAGO)
			// Normalise by batch size so the LR is batch-invariant.
			scale := float32(1) / float32(len(batch))
			for i := range dUPO.Data {
				dUPO.Data[i] *= scale
			}
			for i := range dAGO.Data {
				dAGO.Data[i] *= scale
			}
			m.Backward(dUPO, dAGO)
			tensor.ClipGrad(m.Params(), 10)
			opt.Step()
			epochLoss += loss / float64(len(batch))
			batches++
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss/float64(batches))
		}
	}
}

// Predictor is any detector backend that can be evaluated — the float model,
// the int8 port, the RCNN baselines, or a decorated stack over them: the one
// inference method of the detector seam (detect.Detector adds a name).
type Predictor interface {
	PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error)
}

// evalChunk is how many screens Evaluate stacks into one forward.
const evalChunk = 8

// Evaluate scores a detector on a labelled split: per-class counts at the
// given IoU threshold and DefaultConfThresh. It is the one scoring loop every
// pixel backend goes through. Samples run through the seam in stacked chunks
// of evalChunk, so a split pays one backbone forward per chunk; the seam's
// answers do not depend on batch company, so the counts are the per-screen
// ones. A failed chunk scores as no detections.
func Evaluate(m Predictor, samples []*dataset.Sample, iouThresh float64) *metrics.Evaluation {
	eval := metrics.NewEvaluation()
	for start := 0; start < len(samples); start += evalChunk {
		chunk := samples[start:min(start+evalChunk, len(samples))]
		out, err := m.PredictBatchCtx(context.Background(), BatchToTensor(chunk), DefaultConfThresh)
		if err != nil || len(out) != len(chunk) {
			out = make([][]metrics.Detection, len(chunk))
		}
		for i, dets := range out {
			eval.AddSample(dets, chunk[i].Boxes, iouThresh)
		}
	}
	return eval
}
