// Package quant reimplements the paper's model-porting pipeline (Section
// IV-C): the trained detector is prepared for the "device" by folding
// batch-norm statistics into convolution weights (the paper's "replace the
// internal redundant calculations in the model with constants") and then
// quantising weights and activations to int8 with per-channel weight scales
// and calibration-derived activation scales — the ncnn-style int8 path.
//
// Inference runs with int8 multiplications accumulated in int32, exactly the
// arithmetic an ARM CPU would execute, so the accuracy loss measured in the
// experiments (Table III vs Table IV) is the genuine quantisation error.
//
// The port is the fast path as well as the small one, as in the paper, where
// ncnn's speed comes from SIMD integer dot products: on amd64 with AVX2 the
// GEMM is gemmWords, VPMADDWD over int16 pairs into int32 lanes; elsewhere
// it is gemmPairs, which carries two weight rows in one 64-bit lane pair and
// gets two MACs from every multiply. Integer sums are exact in any order, so
// both give the same int32 tiles and the same answers (int8gemm.go). The
// batched int8 forward outruns the float one (cmd/darpa-bench, audit-batch:
// audit_int8_screens_per_s against audit_screens_per_s).
package quant

import (
	"context"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// qconv is an int8-quantised convolution layer: a backbone layer's
// tensor.ConvKernel, and a head's as a qhead (int8gemm.go).
type qconv struct {
	tensor.ConvGeom
	w, b    []float32 // folded float weights [OutC][InC*K*K] and bias
	qw      []int8    // quantised weights: canonical (WeightBytes, the test oracle)
	qwp     []int64   // qw as gemmPairs reads it, where tensor.SIMD is false
	qww     []int32   // qw as gemmWords reads it, where tensor.SIMD is true
	wScale  []float32 // per-output-channel weight scale
	inScale float32   // activation scale (from calibration)
	relu    bool      // apply leaky-ReLU(0.1) after

	// End-to-end int8 chain constants, set by Model.link once every
	// calibration scale is known. outScale is the next layer's inScale (the
	// trunk's is shared by the UPO head and the block at yolite.Trunk, which
	// link gives the head); rq and bq fold dequantise + bias + requantise
	// into one multiply-add per accumulator: rq = wScale*inScale/outScale,
	// bq = bias/outScale. Heads emit float32 and leave them nil.
	outScale float32
	rq, bq   []float32
}

// quantiseWeights converts folded float weights to int8 with per-channel
// symmetric scales, and derives the layout this CPU's GEMM multiplies.
func (q *qconv) quantiseWeights() {
	per := q.InC * q.K * q.K
	q.qw = make([]int8, len(q.w))
	q.wScale = make([]float32, q.OutC)
	for oc := 0; oc < q.OutC; oc++ {
		var maxAbs float32
		for i := 0; i < per; i++ {
			v := q.w[oc*per+i]
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			maxAbs = 1e-8
		}
		scale := maxAbs / 127
		q.wScale[oc] = scale
		for i := 0; i < per; i++ {
			v := q.w[oc*per+i] / scale
			q.qw[oc*per+i] = int8(clamp(math.Round(float64(v)), -127, 127))
		}
	}
	if tensor.SIMD {
		q.qww = packWords(q.qw, q.OutC, per)
	} else {
		q.qwp = packPairs(q.qw, q.OutC, per)
	}
}

// Model is the ported, int8 detector — the artefact DARPA embeds in the
// on-device app.
type Model struct {
	backbone []*qconv // yolite.Model.Blocks, ported
	upoHead  *qconv   // reads backbone[yolite.Trunk]'s input
	agoHead  *qconv   // reads the last block's output

	// DisableRefine turns off the edge-snapping post-processor, mirroring
	// yolite.Model.DisableRefine so refine-ablation benchmarks compare the
	// float and int8 backends like-for-like. Port seeds it from the source
	// model.
	DisableRefine bool

	// Pool mirrors yolite.Model.Pool: when set, inference draws its head
	// maps and refine scratch from it; the int8 intermediates recycle
	// through i8s. Port carries it over from the source model.
	Pool *tensor.Pool
}

func newQConvFromBlock(seq *nn.Sequential) *qconv {
	conv, bn, _ := nn.ConvBNActParts(seq)
	q := &qconv{ConvGeom: conv.ConvGeom, relu: true}
	q.w, q.b = tensor.FoldConvBN(conv, bn)
	q.quantiseWeights()
	return q
}

func newQConvFromHead(conv *tensor.Conv2D) *qconv {
	q := &qconv{ConvGeom: conv.ConvGeom, w: slices.Clone(conv.W.Data), b: slices.Clone(conv.B.Data)}
	q.quantiseWeights()
	return q
}

// Port converts a trained float model into the int8 device model,
// calibrating activation scales on the given samples (a handful of training
// images suffices; the paper's ncnn flow does the same).
func Port(m *yolite.Model, calib []*dataset.Sample) *Model {
	qm := &Model{
		upoHead:       newQConvFromHead(m.UPOHead),
		agoHead:       newQConvFromHead(m.AGOHead),
		DisableRefine: m.DisableRefine,
		Pool:          m.Pool,
	}
	for _, s := range m.Blocks() {
		qm.backbone = append(qm.backbone, newQConvFromBlock(s))
	}
	qm.calibrate(m, calib)
	qm.link()
	return qm
}

// link derives the end-to-end int8 chain constants from the calibration
// scales: each backbone layer's output scale is the scale its consumer
// quantises with, so activations flow between layers as int8 without a float
// round trip. The stride-8 trunk feeds both the UPO head and the block at
// yolite.Trunk, so the head takes that block's scale and the shared buffer is
// valid for both by construction.
func (qm *Model) link() {
	qm.upoHead.inScale = qm.backbone[yolite.Trunk].inScale
	for i, l := range qm.backbone {
		l.outScale = qm.agoHead.inScale
		if i+1 < len(qm.backbone) {
			l.outScale = qm.backbone[i+1].inScale
		}
		l.rq = make([]float32, l.OutC)
		l.bq = make([]float32, l.OutC)
		for oc := 0; oc < l.OutC; oc++ {
			l.rq[oc] = l.wScale[oc] * l.inScale / l.outScale
			l.bq[oc] = l.b[oc] / l.outScale
		}
	}
}

// calibrate runs the float model over the calibration set recording the
// maximum absolute activation entering each block and the AGO head, and
// sets their int8 scales; link gives the UPO head its trunk's.
func (qm *Model) calibrate(m *yolite.Model, calib []*dataset.Sample) {
	layers := append(slices.Clone(qm.backbone), qm.agoHead)
	maxIn := make([]float32, len(layers))
	observe := func(idx int, t *tensor.Tensor) {
		for _, v := range t.Data {
			if v < 0 {
				v = -v
			}
			if v > maxIn[idx] {
				maxIn[idx] = v
			}
		}
	}
	if len(calib) == 0 {
		// No calibration data: assume unit-range activations.
		for i := range maxIn {
			maxIn[i] = 1
		}
	}
	for _, s := range calib {
		h := yolite.CanvasToTensor(s.Input)
		for i, b := range m.Blocks() {
			observe(i, h)
			h = b.Forward(h, false)
		}
		observe(len(layers)-1, h)
	}
	for i, l := range layers {
		if maxIn[i] == 0 {
			maxIn[i] = 1
		}
		l.inScale = maxIn[i] / 127
	}
}

// Forward runs the quantised network with no deadline, returning both raw
// head maps: pooled float32 buffers owned by the caller.
func (qm *Model) Forward(x *tensor.Tensor) (upo, ago *tensor.Tensor) {
	upo, ago, _ = qm.forwardInt8(x, nil)
	return upo, ago
}

// forwardInt8 is the end-to-end int8 pipeline: the input is quantised to
// int8 once, item by item, and tensor.Walk runs the backbone and heads over
// it. Activations stay int8 until the heads dequantise (see int8gemm.go):
// each block's output carries the scale its consumer expects (see link).
// The int8 intermediates recycle through i8s and the head maps come from
// the Pool, owned by the caller. done is the walk's cancellation channel:
// on abort ok is false with every buffer returned.
func (qm *Model) forwardInt8(x *tensor.Tensor, done <-chan struct{}) (upo, ago *tensor.Tensor, ok bool) {
	N := x.Shape[0]
	in := i8s.Get(len(x.Data))
	defer i8s.Put(in)
	if N > 1 {
		q, per := *in, len(x.Data)/N
		tensor.ParallelFor(N, func(n int) {
			quantI8(q[n*per:(n+1)*per], x.Data[n*per:(n+1)*per], qm.backbone[0].inScale)
		})
	} else {
		quantI8(*in, x.Data, qm.backbone[0].inScale)
	}
	return tensor.Walk(qm.backbone, yolite.Trunk, (*qhead)(qm.upoHead), (*qhead)(qm.agoHead), *in, N, x.Shape[2], x.Shape[3], &i8s, qm.Pool, done)
}

// PredictBatchCtx is the detector seam with int8 inference: one forward over
// the whole [N, 3, H, W] batch, every item decoded by the float model's
// yolite.DecodeBatch. The contract is yolite.Model.PredictBatchCtx's: a dead
// ctx returns ctx.Err() before any work, a cancel aborts within roughly one
// conv layer (or between decoded items) with a nil result, and a context
// that never fires computes exactly what Background does.
func (qm *Model) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	upo, ago, ok := qm.forwardInt8(x, ctx.Done())
	if !ok {
		return nil, ctx.Err()
	}
	defer func() {
		qm.Pool.Put(upo)
		qm.Pool.Put(ago)
	}()
	return yolite.DecodeBatch(ctx, x, upo, ago, confThresh, !qm.DisableRefine, qm.Pool)
}

// PredictTensor is a shim kept for cmd/darpa-bench, which times the int8
// model through this name: PredictBatchCtx with no deadline, item n of the
// answer. Nothing else calls it.
func (qm *Model) PredictTensor(x *tensor.Tensor, n int, confThresh float64) []metrics.Detection {
	out, _ := qm.PredictBatchCtx(context.Background(), x, confThresh)
	return out[n]
}

var _ yolite.Predictor = (*Model)(nil)

// Name identifies the backend in registries and result tables.
func (qm *Model) Name() string { return "yolite-int8" }

// SetPool mirrors yolite.Model.SetPool: the seam detect.Build installs a
// private head-map pool through. Must not be called while a forward is in
// flight.
func (qm *Model) SetPool(p *tensor.Pool) { qm.Pool = p }

// WeightBytes reports the size of the quantised weights in bytes, the
// "smaller model size" the paper credits ncnn with.
func (qm *Model) WeightBytes() int {
	n := 0
	for _, l := range slices.Concat(qm.backbone, []*qconv{qm.upoHead, qm.agoHead}) {
		n += len(l.qw) + 4*len(l.b) + 4*len(l.wScale) + 4
	}
	return n
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
