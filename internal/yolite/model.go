// Package yolite implements the reproduction's one-stage AUI detector — the
// stand-in for the paper's YOLOv5. It is a genuine grid detector trained
// from scratch in pure Go: a strided conv/batch-norm/leaky-ReLU backbone
// with two class-specific heads, mirroring YOLOv5's multi-scale design at a
// size a single CPU core can train in minutes:
//
//   - a stride-8 head for the tiny corner UPOs (fine grid, small anchor)
//   - a stride-32 head for the large central AGOs (coarse grid, big anchor)
//
// Each head predicts, per cell, an objectness logit and a box
// (sigmoid-offset centre, log-scaled anchor size) — the YOLO parameterisation.
package yolite

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/render"
	"repro/internal/tensor"
)

// Input resolution of the detector (W x H). Screenshots are resampled to
// this size before inference, like YOLOv5's letterboxed 640x640 input.
const (
	InputW = 96
	InputH = 160
)

// HeadSpec describes one detection head.
type HeadSpec struct {
	Class   dataset.Class
	Stride  int
	AnchorW float64
	AnchorH float64
}

// The two heads. Anchors are the median ground-truth sizes at input
// resolution.
var (
	UPOHeadSpec = HeadSpec{Class: dataset.ClassUPO, Stride: 8, AnchorW: 6, AnchorH: 6}
	AGOHeadSpec = HeadSpec{Class: dataset.ClassAGO, Stride: 32, AnchorW: 52, AnchorH: 12}
)

// GridSize returns the head's grid dimensions (rows, cols).
func (h HeadSpec) GridSize() (int, int) { return InputH / h.Stride, InputW / h.Stride }

// Model is the detector network. The backbone branches after block B3b: the
// fine head reads the stride-8 feature map, the coarse head reads stride-32.
type Model struct {
	B1, B2, B3, B3b, B4, B5 *nn.Sequential
	UPOHead, AGOHead        *tensor.Conv2D

	// DisableRefine turns off the edge-snapping post-processor; used by the
	// ablation benchmarks.
	DisableRefine bool

	// Pool, when set, recycles the head maps across inference calls:
	// Forward(train=false) draws them from it, PredictBatchCtx returns them
	// once decoded, and the refine scratch comes from it too. Intermediates
	// recycle process-wide (see infer). Training ignores it — the backward
	// pass holds references to forward activations, so they must stay fresh.
	// Safe to share across goroutines serving one model.
	Pool *tensor.Pool

	// fused holds the folded one-pass inference form of each backbone block
	// (conv, batch norm, and activation collapsed — see tensor.FuseConvBNAct),
	// built lazily on first inference and dropped whenever the underlying
	// weights can change (Load, any training forward). Guarded by fusedMu so
	// concurrent Predict* calls race neither the build nor the invalidation.
	fusedMu sync.Mutex
	fused   []*tensor.FusedConvBNAct
}

// NewModel builds a randomly initialised detector.
func NewModel(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	return &Model{
		B1:      nn.ConvBNAct(tensor.NewConv2D(rng, 3, 10, 3, 2, 1)),  // 96x160 -> 48x80
		B2:      nn.ConvBNAct(tensor.NewConv2D(rng, 10, 16, 3, 2, 1)), // -> 24x40
		B3:      nn.ConvBNAct(tensor.NewConv2D(rng, 16, 24, 3, 2, 1)), // -> 12x20 (stride 8)
		B3b:     nn.ConvBNAct(tensor.NewConv2D(rng, 24, 24, 3, 1, 1)), // deeper stride-8 features
		B4:      nn.ConvBNAct(tensor.NewConv2D(rng, 24, 32, 3, 2, 1)), // -> 6x10
		B5:      nn.ConvBNAct(tensor.NewConv2D(rng, 32, 32, 3, 2, 1)), // -> 3x5 (stride 32)
		UPOHead: tensor.NewConv2D(rng, 24, 5, 1, 1, 0),
		AGOHead: tensor.NewConv2D(rng, 32, 5, 1, 1, 0),
	}
}

// Name identifies the backend in registries and result tables.
func (m *Model) Name() string { return "yolite" }

// SetPool installs the pool inference draws its head maps from — the seam
// detect.Build uses to give every built instance a private pool. Must not be
// called while a forward is in flight.
func (m *Model) SetPool(p *tensor.Pool) { m.Pool = p }

// Trunk indexes the block that reads the stride-8 trunk, the fine head's
// input too: the backbone branches there.
const Trunk = 4

// Blocks returns the backbone in order, the one declaration of the graph
// every walk (training, inference, port, calibration) loops over: the UPO
// head reads Blocks()[Trunk]'s input and the AGO head the last block's
// output.
func (m *Model) Blocks() []*nn.Sequential {
	return []*nn.Sequential{m.B1, m.B2, m.B3, m.B3b, m.B4, m.B5}
}

// Params returns every trainable tensor.
func (m *Model) Params() []*tensor.Tensor { return m.asSequential().Params() }

// asSequential is the serialisable layer view of the model, used for weight
// IO: the blocks, then the UPO and AGO heads.
func (m *Model) asSequential() *nn.Sequential {
	return nn.NewSequential(m.B1, m.B2, m.B3, m.B3b, m.B4, m.B5, m.UPOHead, m.AGOHead)
}

// Save writes the model weights to path.
func (m *Model) Save(path string) error { return nn.SaveWeightsFile(path, m.asSequential()) }

// Load reads weights produced by Save.
func (m *Model) Load(path string) error {
	m.invalidateFused()
	return nn.LoadWeightsFile(path, m.asSequential())
}

// Clone returns an independent copy of the model: same weights and BN
// statistics, no shared tensors, no shared pool. Fine-tuning the clone (the
// adversarial hardening loop) leaves the original untouched.
func (m *Model) Clone() (*Model, error) {
	var buf bytes.Buffer
	if err := nn.SaveWeights(&buf, m.asSequential()); err != nil {
		return nil, err
	}
	c := NewModel(1)
	if err := nn.LoadWeights(&buf, c.asSequential()); err != nil {
		return nil, err
	}
	c.DisableRefine = m.DisableRefine
	return c, nil
}

// Fuse builds the folded inference blocks eagerly, so the first request a
// freshly built replica serves does not pay the fold. Optional — inference
// fuses lazily on demand — and exposed through the detect build path via the
// anonymous interface{ Fuse() }.
func (m *Model) Fuse() { m.fusedBlocks() }

// invalidateFused drops the folded blocks; the next inference refolds from
// the current weights. Called whenever the float weights may change.
func (m *Model) invalidateFused() {
	m.fusedMu.Lock()
	m.fused = nil
	m.fusedMu.Unlock()
}

// fusedBlocks returns the folded backbone, building it on first use.
func (m *Model) fusedBlocks() []*tensor.FusedConvBNAct {
	m.fusedMu.Lock()
	defer m.fusedMu.Unlock()
	if m.fused == nil {
		for _, s := range m.Blocks() {
			m.fused = append(m.fused, tensor.FuseConvBNAct(nn.ConvBNActParts(s)))
		}
	}
	return m.fused
}

// Forward runs the backbone and both heads. x is [N, 3, InputH, InputW];
// the returned maps are [N, 5, GH, GW] for each head. Inference runs the one
// fused walk (infer); training walks the layer-by-layer form the backward
// pass needs, and drops any stale fused snapshot since the step about to
// happen will change the weights.
func (m *Model) Forward(x *tensor.Tensor, train bool) (upo, ago *tensor.Tensor) {
	if !train {
		upo, ago, _ = m.infer(x, nil)
		return upo, ago
	}
	m.invalidateFused()
	for i, b := range m.Blocks() {
		if i == Trunk {
			upo = m.UPOHead.Forward(x, train)
		}
		x = b.Forward(x, train)
	}
	return upo, m.AGOHead.Forward(x, train)
}

// infer is the inference forward: tensor.Walk over the fused blocks (see
// tensor.FuseConvBNAct), intermediates recycling through acts, head maps
// drawn from the Pool and owned by the caller. done is a cooperative
// cancellation channel; nil never aborts, and on abort ok is false with
// every buffer returned.
func (m *Model) infer(x *tensor.Tensor, done <-chan struct{}) (upo, ago *tensor.Tensor, ok bool) {
	return tensor.Walk(m.fusedBlocks(), Trunk, m.UPOHead, m.AGOHead, x.Data, x.Shape[0], x.Shape[2], x.Shape[3], &acts, m.Pool, done)
}

// acts recycles the float intermediates of every model's inference walk.
var acts tensor.Scratch[float32]

// Backward propagates head gradients through the shared backbone: the UPO
// head's input gradient joins the deep chain's at the trunk.
func (m *Model) Backward(dUPO, dAGO *tensor.Tensor) {
	blocks := m.Blocks()
	d := m.AGOHead.Backward(dAGO)
	for i := len(blocks) - 1; i >= 0; i-- {
		d = blocks[i].Backward(d)
		if i == Trunk {
			head := m.UPOHead.Backward(dUPO)
			if !head.SameShape(d) {
				panic("yolite: branch gradients disagree in shape")
			}
			for j, v := range head.Data {
				d.Data[j] += v
			}
		}
	}
}

// unit holds float32(v)/255 for every channel byte v: canvasInto looks the
// normalised value up instead of dividing, bit for bit the same.
var unit = func() (t [256]float32) {
	for v := range t {
		t[v] = float32(v) / 255
	}
	return t
}()

// canvasInto writes c, downscaled to InputW x InputH when it is any other
// size, into dst as one normalised [3, InputH, InputW] item — the single
// pixel-to-input writer behind every canvas-to-tensor entry point.
func canvasInto(dst []float32, c *render.Canvas) {
	if c.W != InputW || c.H != InputH {
		c = c.Downscale(InputW, InputH)
	}
	plane := InputH * InputW
	r, g, b := dst[:plane], dst[plane:2*plane], dst[2*plane:3*plane]
	for o := range r {
		px := c.Pix[4*o : 4*o+3]
		r[o], g[o], b[o] = unit[px[0]], unit[px[1]], unit[px[2]]
	}
}

// CanvasToTensor converts an RGBA canvas (any resolution) into a normalised
// [1, 3, InputH, InputW] tensor.
func CanvasToTensor(c *render.Canvas) *tensor.Tensor {
	x := tensor.New(1, 3, InputH, InputW)
	canvasInto(x.Data, c)
	return x
}

// BatchToTensor stacks samples' input canvases into one [N, 3, H, W] tensor
// through CanvasesToTensor.
func BatchToTensor(samples []*dataset.Sample) *tensor.Tensor {
	shots := make([]*render.Canvas, len(samples))
	for i, s := range samples {
		shots[i] = s.Input
	}
	return CanvasesToTensor(shots)
}

// CanvasesToTensor stacks screenshot canvases (any resolutions) into one
// [N, 3, InputH, InputW] batch tensor, downscaling and writing the items on
// the shared worker pool. It returns nil for an empty slice.
func CanvasesToTensor(shots []*render.Canvas) *tensor.Tensor {
	if len(shots) == 0 {
		return nil
	}
	x := tensor.New(len(shots), 3, InputH, InputW)
	per := 3 * InputH * InputW
	tensor.ParallelFor(len(shots), func(i int) {
		canvasInto(x.Data[i*per:(i+1)*per], shots[i])
	})
	return x
}

// DecodeHead converts one head's raw output map for batch item n into
// detections above confThresh. It is exported so alternative inference
// backends (the int8 ncnn-style port in internal/quant) can share it.
func DecodeHead(out *tensor.Tensor, n int, spec HeadSpec, confThresh float64) []metrics.Detection {
	gh, gw := out.Shape[2], out.Shape[3]
	plane := gh * gw
	base := n * 5 * plane
	var dets []metrics.Detection
	for row := 0; row < gh; row++ {
		for col := 0; col < gw; col++ {
			idx := row*gw + col
			obj := float64(tensor.Sigmoid(out.Data[base+idx]))
			// NaN-safe threshold: corrupted feature bytes turn the objectness
			// logit into NaN, and `obj < confThresh` is false for NaN — the
			// historical form let every corrupted cell through as a
			// NaN-positioned detection. The negated comparison rejects NaN
			// along with low-confidence cells.
			if !(obj >= confThresh) {
				continue
			}
			// Linear (sigmoid-free) centre offsets; see headLoss.
			tx := clampf(float64(out.Data[base+plane+idx]), -0.5, 1.5)
			ty := clampf(float64(out.Data[base+2*plane+idx]), -0.5, 1.5)
			tw := float64(out.Data[base+3*plane+idx])
			th := float64(out.Data[base+4*plane+idx])
			// The conversions round each product and half on its own: arm64
			// would otherwise fuse them into the subtraction below (FMSUBD)
			// and snap boxes differently from amd64.
			cx := float64((float64(col) + tx) * float64(spec.Stride))
			cy := float64((float64(row) + ty) * float64(spec.Stride))
			w := math.Exp(clampf(tw, -4, 4)) * spec.AnchorW
			h := math.Exp(clampf(th, -4, 4)) * spec.AnchorH
			// GUI widgets are pixel aligned, so decoded boxes are snapped
			// to the pixel grid; this is what makes the paper's strict
			// IoU >= 0.9 protocol attainable (see also Chen et al. [28]).
			b := geom.BoxF{
				X: math.Round(cx - float64(w/2)),
				Y: math.Round(cy - float64(h/2)),
				W: math.Round(w),
				H: math.Round(h),
			}
			// Corrupted box regressions (NaN/Inf weight or feature bytes)
			// survive clampf — NaN fails both comparisons — and would flow
			// downstream as NaN-positioned overlays; drop the cell instead.
			if math.IsNaN(b.X) || math.IsNaN(b.Y) || math.IsNaN(b.W) || math.IsNaN(b.H) {
				continue
			}
			dets = append(dets, metrics.Detection{Class: spec.Class, B: b, Score: obj})
		}
	}
	return dets
}

// PredictBatchCtx is the detector seam: one forward over the whole
// [N, 3, H, W] batch, every item decoded to NMS-filtered detections in
// input-resolution coordinates (a single screen is a batch of one) by
// DecodeBatch. A dead ctx returns ctx.Err() before any work; a cancel during
// the forward aborts it within roughly one conv layer, and one during the
// decode stops it between items — either way the result is nil and the pool
// is whole. A context that never fires computes exactly what Background does.
func (m *Model) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	upo, ago, ok := m.infer(x, ctx.Done())
	if !ok {
		return nil, ctx.Err()
	}
	defer func() {
		m.Pool.Put(upo)
		m.Pool.Put(ago)
	}()
	return DecodeBatch(ctx, x, upo, ago, confThresh, !m.DisableRefine, m.Pool)
}

// PredictTensor is a shim kept for cmd/darpa-bench, which times the model
// through this name: PredictBatchCtx with no deadline, item n of the answer.
// Nothing else calls it.
func (m *Model) PredictTensor(x *tensor.Tensor, n int, confThresh float64) []metrics.Detection {
	out, _ := m.PredictBatchCtx(context.Background(), x, confThresh)
	return out[n]
}

// DecodeBatch turns the raw head maps of an [N, 3, H, W] batch into final
// detections, for the float model and the int8 port alike. A batch of more
// than one decodes its items on the shared worker pool, polling ctx between
// items; a batch of one decodes inline and builds no closure, so the serving
// path pays nothing for the fan-out. A cancel returns nil and ctx.Err().
func DecodeBatch(ctx context.Context, x, upo, ago *tensor.Tensor, confThresh float64, refine bool, pool *tensor.Pool) ([][]metrics.Detection, error) {
	out := make([][]metrics.Detection, x.Shape[0])
	if len(out) > 1 {
		tensor.ParallelForCancel(ctx.Done(), len(out), func(n int) {
			out[n] = decodeItem(x, upo, ago, n, confThresh, refine, pool)
		})
	} else if len(out) == 1 {
		out[0] = decodeItem(x, upo, ago, 0, confThresh, refine, pool)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeItem turns the raw head maps for batch item n into final
// detections: decode both heads, optionally edge-snap against x's luma
// (scratch drawn from pool; a nil pool allocates it), suppress duplicates.
func decodeItem(x, upo, ago *tensor.Tensor, n int, confThresh float64, refine bool, pool *tensor.Pool) []metrics.Detection {
	dets := DecodeHead(upo, n, UPOHeadSpec, confThresh)
	dets = append(dets, DecodeHead(ago, n, AGOHeadSpec, confThresh)...)
	if refine {
		scratch := pool.Get(x.Shape[2] * x.Shape[3])
		dets = RefineDetections(dets, LumaPlaneInto(x, n, scratch.Data), InputW, InputH)
		pool.Put(scratch)
	}
	// Same-class options are never adjacent on real AUIs, so NMS can be
	// aggressive; this removes the duplicate fires that multi-cell target
	// assignment deliberately creates.
	return metrics.NMS(dets, 0.2)
}

// PredictInput runs any backend on one screenshot canvas (resampled to the
// model input) with no deadline and returns its detections in
// input-resolution coordinates: the one-screen call of the adversary's
// confidence probe and of the Table V latency measurement. A failed call
// reads as no detections, which is how a probe should score it.
func PredictInput(p Predictor, c *render.Canvas, confThresh float64) []metrics.Detection {
	out, err := p.PredictBatchCtx(context.Background(), CanvasToTensor(c), confThresh)
	if err != nil || len(out) != 1 {
		return nil
	}
	return out[0]
}

// DefaultConfThresh is the objectness threshold used throughout the
// evaluation.
const DefaultConfThresh = 0.45

func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
