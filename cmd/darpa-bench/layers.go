package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image"
	"image/png"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/httpd"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// This file is the traced pass's view of the program: each probe replays
// corpus items at one caller through one stretch of the layer chain, with a
// span around every call into a layer's exported API. Nothing here is inside
// the program; a layer that exports no seam is timed as part of its caller.

// blockNames are the six fused backbone blocks, in forward order.
var blockNames = [6]string{"b1", "b2", "b3", "b3b", "b4", "b5"}

// floatParts is the float detector taken apart along its exported seams, so
// the forward can be replayed block by block exactly as forwardPooled runs it.
type floatParts struct {
	m      *yolite.Model
	pool   *tensor.Pool
	blocks [6]*tensor.FusedConvBNAct
}

func newFloatParts() (*floatParts, error) {
	m, err := buildFloat()
	if err != nil {
		return nil, err
	}
	p := &floatParts{m: m, pool: m.Pool}
	for i, seq := range [6]*nn.Sequential{m.B1, m.B2, m.B3, m.B3b, m.B4, m.B5} {
		p.blocks[i] = tensor.FuseConvBNAct(nn.ConvBNActParts(seq))
	}
	return p, nil
}

// forwardMflop counts the forward's multiply-accumulates from the layer
// shapes, times two. A count, exact, independent of the box.
func (p *floatParts) forwardMflop() float64 {
	macs := 0
	conv := func(c *tensor.Conv2D, h, w int) (int, int) {
		oh, ow := c.OutSize(h, w)
		macs += c.OutC * oh * ow * c.InC * c.K * c.K
		return oh, ow
	}
	h, w := yolite.InputH, yolite.InputW
	seqs := [6]*nn.Sequential{p.m.B1, p.m.B2, p.m.B3, p.m.B3b, p.m.B4, p.m.B5}
	for i, seq := range seqs {
		c, _, _ := nn.ConvBNActParts(seq)
		h, w = conv(c, h, w)
		if blockNames[i] == "b3b" {
			conv(p.m.UPOHead, h, w) // the fine head branches off the stride-8 trunk
		}
	}
	conv(p.m.AGOHead, h, w)
	return float64(2*macs) / 1e6
}

// replayStats are the exact per-seed work ratios the replay counts.
type replayStats struct {
	cells, decoded, kept, screens int
}

// predictReplay is PredictTensor re-enacted through the exported pieces it is
// built from, a span around each: six fused blocks, two heads, decode of both
// heads, luma, refine, NMS. It returns what PredictTensor returns.
func (p *floatParts) predictReplay(t *tracer, parent, req int, x *tensor.Tensor, st *replayStats) []metrics.Detection {
	pool := p.pool
	timed := func(name string, f func()) { t.timed(name, parent, req, f) }
	var upo, ago *tensor.Tensor
	h := x
	for i, blk := range p.blocks {
		var out *tensor.Tensor
		timed("tensor.fused_"+blockNames[i], func() { out = blk.ForwardPooled(h, pool) })
		if blockNames[i] == "b3b" {
			timed("tensor.heads", func() { upo = p.m.UPOHead.ForwardPooled(out, pool) })
		}
		if h != x {
			pool.Put(h)
		}
		h = out
	}
	timed("tensor.heads", func() { ago = p.m.AGOHead.ForwardPooled(h, pool) })
	pool.Put(h)

	var dets []metrics.Detection
	timed("yolite.decode", func() {
		dets = yolite.DecodeHead(upo, 0, yolite.UPOHeadSpec, yolite.DefaultConfThresh)
		dets = append(dets, yolite.DecodeHead(ago, 0, yolite.AGOHeadSpec, yolite.DefaultConfThresh)...)
	})
	st.cells += upo.Shape[2]*upo.Shape[3] + ago.Shape[2]*ago.Shape[3]
	st.decoded += len(dets)
	scratch := pool.Get(yolite.InputH * yolite.InputW)
	var luma []float32
	timed("yolite.luma", func() { luma = yolite.LumaPlaneInto(x, 0, scratch.Data) })
	timed("yolite.refine", func() { dets = yolite.RefineDetections(dets, luma, yolite.InputW, yolite.InputH) })
	pool.Put(scratch)
	timed("metrics.nms", func() { dets = metrics.NMS(dets, 0.2) })
	st.kept += len(dets)
	st.screens++
	pool.Put(upo)
	pool.Put(ago)
	return dets
}

// frontEnd says how a workload's screens reach the detector.
type frontEnd int

const (
	frontJSON   frontEnd = iota // base64 PNG in a JSON body (serve-lowres)
	frontRawPNG                 // raw image/png body (serve-hires)
	frontCanvas                 // an in-process canvas (audit-batch)
)

// chainItem is one screen as the chain replay receives it.
type chainItem struct {
	body   []byte         // frontJSON, frontRawPNG
	canvas *render.Canvas // frontCanvas
	want   []metrics.Detection
}

// chainResult is what replaying the chain over the items produced.
type chainResult struct {
	tensors []*tensor.Tensor // each item's model input, for the direct probes
	itemUS  []float64        // wall time of each item's whole chain
	stats   replayStats
	news    int64 // fresh buffers the activation pool had to allocate
	bad     []string
}

// replayChain runs every item through the workload's layer chain in-process,
// HTTP bytes (or canvas) to decoration JSON, recording spans into t. With a
// nil tracer it does the same work unrecorded.
func replayChain(t *tracer, p *floatParts, fe frontEnd, items []chainItem) chainResult {
	var out chainResult
	_, news0 := p.pool.Stats()
	for req, it := range items {
		t0 := time.Now()
		root := t.begin("request", -1, req)
		timed := func(name string, f func()) { t.timed(name, root, req, f) }
		canvas := it.canvas
		if fe != frontCanvas {
			pngBytes := it.body
			if fe == frontJSON {
				var err error
				timed("httpd.body_decode", func() {
					var r httpd.DetectRequest
					if err = json.Unmarshal(it.body, &r); err == nil {
						pngBytes, err = base64.StdEncoding.DecodeString(r.Screen)
					}
				})
				if err != nil {
					out.bad = append(out.bad, fmt.Sprintf("item %d: %v", req, err))
					continue
				}
			}
			var img image.Image
			var err error
			timed("httpd.png_decode", func() { img, err = png.Decode(bytes.NewReader(pngBytes)) })
			if err != nil {
				out.bad = append(out.bad, fmt.Sprintf("item %d: %v", req, err))
				continue
			}
			timed("render.from_image", func() { canvas = render.FromImage(img) })
		}
		full := canvas
		if canvas.W != yolite.InputW || canvas.H != yolite.InputH {
			timed("render.downscale", func() { canvas = canvas.Downscale(yolite.InputW, yolite.InputH) })
		}
		var x *tensor.Tensor
		timed("yolite.to_tensor", func() { x = yolite.CanvasToTensor(canvas) })
		dets := p.predictReplay(t, root, req, x, &out.stats)
		sx, sy := float64(full.W)/yolite.InputW, float64(full.H)/yolite.InputH
		for i := range dets {
			dets[i].B = dets[i].B.Scale(sx, sy)
		}
		if fe != frontCanvas {
			var plan []core.Decoration
			var bypass []metrics.Detection
			timed("core.plan", func() {
				plan = core.PlanDecorations(dets, render.Color{}, render.Color{}, 0)
				bypass = core.BypassTargets(dets)
			})
			resp := wireResponse(full, dets, plan, bypass)
			timed("httpd.resp_encode", func() { json.Marshal(resp) })
		}
		t.end(root)
		out.itemUS = append(out.itemUS, us(time.Since(t0)))
		out.tensors = append(out.tensors, x)
		if !sameDetections(dets, it.want) {
			out.bad = append(out.bad, fmt.Sprintf("item %d: chain replay gave %v, reference %v", req, dets, it.want))
		}
	}
	_, news1 := p.pool.Stats()
	out.news = news1 - news0
	return out
}

// wireResponse builds the reply body the handler would encode for dets.
func wireResponse(c *render.Canvas, dets []metrics.Detection, plan []core.Decoration, bypass []metrics.Detection) httpd.DetectResponse {
	class := func(c dataset.Class) string {
		if c == dataset.ClassUPO {
			return "UPO"
		}
		return "AGO"
	}
	resp := httpd.DetectResponse{Tenant: string(serve.DefaultTenant), Width: c.W, Height: c.H,
		Detections: make([]httpd.Detection, 0, len(dets)), Decorations: make([]httpd.Decoration, 0, len(plan))}
	for _, d := range dets {
		resp.Detections = append(resp.Detections, httpd.Detection{Class: class(d.Class), Box: httpd.Box{X: d.B.X, Y: d.B.Y, W: d.B.W, H: d.B.H}, Score: d.Score})
	}
	for _, d := range plan {
		resp.Decorations = append(resp.Decorations, httpd.Decoration{
			Class: class(d.Class), Frame: httpd.Box{X: float64(d.Frame.X), Y: float64(d.Frame.Y), W: float64(d.Frame.W), H: float64(d.Frame.H)},
			Color: fmt.Sprintf("#%02x%02x%02x", d.Color.R, d.Color.G, d.Color.B), Stroke: d.Stroke,
		})
	}
	for _, d := range bypass {
		resp.Bypass = append(resp.Bypass, httpd.Box{X: d.B.X, Y: d.B.Y, W: d.B.W, H: d.B.H})
	}
	return resp
}

// perRequest sums, per request, the self time of the spans named name, and
// returns one figure per request that has any — a layer called twice in a
// request (two heads, two decodes) costs that request the sum.
func perRequest(spans []span, self []time.Duration, name string) []float64 {
	sums := map[int]float64{}
	var order []int
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Req]; !ok {
			order = append(order, s.Req)
		}
		sums[s.Req] += us(self[i])
	}
	out := make([]float64, len(order))
	for i, req := range order {
		out[i] = sums[req]
	}
	return out
}

// chainLayers are the chain's spans in path order, with the per-layer metric
// each feeds. "request" is the replay's own glue between calls.
var chainLayers = []struct {
	span, metric string
	perUS        float64 // metric units in a microsecond
}{
	{"httpd.body_decode", "httpd.body_decode_us", 1},
	{"httpd.png_decode", "httpd.png_decode_us", 1},
	{"render.from_image", "render.from_image_us", 1},
	{"render.downscale", "render.downscale_us", 1},
	{"yolite.to_tensor", "yolite.to_tensor_us", 1},
	{"tensor.fused_b1", "tensor.fused_b1_us", 1},
	{"tensor.fused_b2", "tensor.fused_b2_us", 1},
	{"tensor.fused_b3", "tensor.fused_b3_us", 1},
	{"tensor.fused_b3b", "tensor.fused_b3b_us", 1},
	{"tensor.fused_b4", "tensor.fused_b4_us", 1},
	{"tensor.fused_b5", "tensor.fused_b5_us", 1},
	{"tensor.heads", "tensor.heads_us", 1},
	{"yolite.decode", "yolite.decode_us", 1},
	{"yolite.luma", "yolite.luma_us", 1},
	{"yolite.refine", "yolite.refine_us", 1},
	{"metrics.nms", "metrics.nms_us", 1},
	{"core.plan", "core.plan_ns", 1000},
	{"httpd.resp_encode", "httpd.resp_encode_us", 1},
}

// chainMetrics turns the chain's spans into per-layer metrics and returns the
// budget rows (layer, self-time p50) in path order.
func chainMetrics(res *workloadResult, spans []span, cr chainResult) []budgetRow {
	self := selfTimes(spans)
	var rows []budgetRow
	for _, l := range chainLayers {
		v := perRequest(spans, self, l.span)
		if len(v) == 0 {
			continue
		}
		p50 := median(v)
		res.set(l.metric, p50*l.perUS)
		rows = append(rows, budgetRow{Layer: l.span, SelfUS: p50})
	}
	rows = append(rows, budgetRow{Layer: "(replay glue)", SelfUS: median(perRequest(spans, self, "request"))})
	st := cr.stats
	if st.screens > 0 {
		res.set("yolite.decode_kept_share", float64(st.decoded)/float64(st.cells))
		res.set("yolite.dets_per_screen", float64(st.kept)/float64(st.screens))
		res.set("tensor.pool_new_per_forward", float64(cr.news)/float64(st.screens))
	}
	if st.decoded > 0 {
		res.set("metrics.nms_kept_share", float64(st.kept)/float64(st.decoded))
	}
	return rows
}

// pairedMedianDiff is the median of a[i]-b[i]: the cost of a layer that can
// only be timed together with what it wraps.
func pairedMedianDiff(a, b []float64) float64 {
	d := make([]float64, min(len(a), len(b)))
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// durationsUS returns the durations of the spans named name, in order.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1000)
		}
	}
	return out
}

// probeDirect times the program's own entry points on the replayed tensors:
// Model.Forward, Model.PredictTensor, the detect seam over it and — when
// withServe — the serving stack at one caller. The seam and the stack can
// only be timed around the predict they wrap, so their cost is a paired
// difference against the direct call on the same tensor.
func probeDirect(ctx context.Context, t *tracer, res *workloadResult, p *floatParts, xs []*tensor.Tensor, withServe bool) error {
	m := p.m
	var batcher *serve.Batcher
	if withServe {
		batcher = serve.NewReplicated(serve.Options{}, m)
		defer batcher.Close()
	}
	first := len(t.spans)
	for req, x := range xs {
		timed := func(name string, f func()) { t.timed(name, -1, req, f) }
		timed("yolite.forward", func() {
			upo, ago := m.Forward(x, false)
			p.pool.Put(upo)
			p.pool.Put(ago)
		})
		var err error
		direct := func() { timed("yolite.predict", func() { m.PredictTensor(x, 0, yolite.DefaultConfThresh) }) }
		seam := func() {
			timed("detect.predict", func() { _, err = detect.Predict(ctx, m, x, 0, yolite.DefaultConfThresh) })
		}
		// Alternate which goes first, so cache warmth favours neither.
		if req%2 == 0 {
			direct()
			seam()
		} else {
			seam()
			direct()
		}
		if err != nil {
			return err
		}
		if batcher != nil {
			timed("serve.predict", func() { _, err = batcher.PredictTensorCtx(ctx, x, 0, yolite.DefaultConfThresh) })
			if err != nil {
				return err
			}
		}
	}
	spans := t.spans[first:]
	forward, predict := durationsUS(spans, "yolite.forward"), durationsUS(spans, "yolite.predict")
	fwd, prd := median(forward), median(predict)
	mflop := p.forwardMflop()
	res.set("yolite.forward_us", fwd)
	res.set("yolite.predict_us", prd)
	res.set("yolite.post_share", (prd-fwd)/prd)
	res.set("tensor.forward_mflop", mflop)
	res.set("tensor.forward_gflops", mflop/fwd*1e3)
	res.set("detect.seam_overhead_ns", 1000*pairedMedianDiff(durationsUS(spans, "detect.predict"), predict))
	if batcher != nil {
		res.set("serve.overhead_us", pairedMedianDiff(durationsUS(spans, "serve.predict"), predict))
	}

	// Heap allocations per pooled predict, counted over an untraced loop so
	// the recorder's own appends stay out of it.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, x := range xs {
		m.PredictTensor(x, 0, yolite.DefaultConfThresh)
	}
	runtime.ReadMemStats(&m1)
	res.set("tensor.allocs_per_predict", float64(m1.Mallocs-m0.Mallocs)/float64(len(xs)))
	return nil
}

// stack8 copies eight consecutive model inputs into one [8,3,H,W] batch.
func stack8(xs []*tensor.Tensor) *tensor.Tensor {
	per := 3 * yolite.InputH * yolite.InputW
	x := tensor.New(auditBatch, 3, yolite.InputH, yolite.InputW)
	for i := 0; i < auditBatch; i++ {
		copy(x.Data[i*per:(i+1)*per], xs[i].Data)
	}
	return x
}

// probeBatchAndQuant covers what audit-batch uses and the serve path does
// not: the N = 8 batched forward and the int8 backend, plus how often int8
// and float agree on a screen.
func probeBatchAndQuant(t *tracer, res *workloadResult, p *floatParts, xs []*tensor.Tensor, want [][]metrics.Detection) error {
	det, err := buildBackend("yolite-int8", calibrationSamples())
	if err != nil {
		return err
	}
	qm, ok := det.(*quant.Model)
	if !ok {
		return fmt.Errorf("registry built %T for yolite-int8", det)
	}
	first := len(t.spans)
	timed := func(name string, req int, f func()) { t.timed(name, -1, req, f) }
	agree := 0
	for req, x := range xs {
		timed("quant.forward", req, func() {
			upo, ago := qm.Forward(x)
			qm.Pool.Put(upo)
			qm.Pool.Put(ago)
		})
		var got []metrics.Detection
		timed("quant.predict", req, func() { got = qm.PredictTensor(x, 0, yolite.DefaultConfThresh) })
		if agreeIoU50(got, want[req]) {
			agree++
		}
	}
	for lo := 0; lo+auditBatch <= len(xs); lo += auditBatch {
		x8 := stack8(xs[lo:])
		timed("yolite.forward_b8", lo, func() {
			upo, ago := p.m.Forward(x8, false)
			p.pool.Put(upo)
			p.pool.Put(ago)
		})
		timed("quant.forward_b8", lo, func() {
			upo, ago := qm.Forward(x8)
			qm.Pool.Put(upo)
			qm.Pool.Put(ago)
		})
	}
	spans := t.spans[first:]
	res.set("quant.forward_us", median(durationsUS(spans, "quant.forward")))
	res.set("quant.predict_us", median(durationsUS(spans, "quant.predict")))
	res.set("quant.agree_share", float64(agree)/float64(len(xs)))
	res.set("yolite.forward_b8_item_us", median(durationsUS(spans, "yolite.forward_b8"))/auditBatch)
	res.set("quant.forward_b8_item_us", median(durationsUS(spans, "quant.forward_b8"))/auditBatch)
	return nil
}

// agreeIoU50 reports whether two detection lists name the same options: the
// same count, and each detection of one matched by a same-class detection of
// the other at IoU 0.5. Both lists are in model-input coordinates.
func agreeIoU50(a, b []metrics.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	truth := make([]dataset.Box, len(b))
	for i, d := range b {
		truth[i] = dataset.Box{Class: d.Class, B: d.B}
	}
	for _, c := range metrics.Match(a, truth, 0.5) {
		if c.FP > 0 || c.FN > 0 {
			return false
		}
	}
	return true
}

// probeCache times detect.Cache the way fleet-50k leans on it: a hit on a
// resident key, and what a miss costs on top of the predict it falls
// through to.
func probeCache(t *tracer, res *workloadResult, p *floatParts, xs []*tensor.Tensor) error {
	const capacity = 256
	// Hits are timed on a quarter of the capacity: the cache is sharded by
	// key hash, and a fuller one could evict a "resident" key.
	resident := min(capacity/4, len(xs))
	const hitRounds = 4
	c := detect.WithResultCache(p.m, capacity)
	first := len(t.spans)
	timed := func(name string, req int, f func()) { t.timed(name, -1, req, f) }
	for req, x := range xs {
		timed("detect.cache_miss", req, func() { c.PredictTensor(x, 0, yolite.DefaultConfThresh) })
		timed("yolite.predict", req, func() { p.m.PredictTensor(x, 0, yolite.DefaultConfThresh) })
		if req == resident-1 {
			for round := 0; round < hitRounds; round++ {
				for hr, hx := range xs[:resident] {
					timed("detect.cache_hit", hr, func() { c.PredictTensor(hx, 0, yolite.DefaultConfThresh) })
				}
			}
		}
	}
	// The generator now and then renders the same benign screen twice, so a
	// few "misses" hit; the medians do not notice. Every timed hit must be one.
	if calls := len(xs) + hitRounds*resident; c.Hits() < hitRounds*resident || c.Hits()+c.Misses() != calls {
		return fmt.Errorf("cache probe: %d hits and %d misses over %d calls, at least %d hits expected", c.Hits(), c.Misses(), calls, hitRounds*resident)
	}
	spans := t.spans[first:]
	res.set("detect.cache_hit_us", median(durationsUS(spans, "detect.cache_hit")))
	res.set("detect.cache_miss_overhead_us", pairedMedianDiff(durationsUS(spans, "detect.cache_miss"), durationsUS(spans, "yolite.predict")))
	return nil
}

// probeSim times sim.Clock with a fleet-sized heap: 50 000 events pending,
// then schedule one and fire one, in spans of a thousand.
func probeSim(t *tracer, res *workloadResult, seed int64) {
	const pending, perSpan, spansN = 50000, 1000, 200
	clock := sim.NewClock(seed)
	rng := rand.New(rand.NewSource(seed))
	noop := func() {}
	horizon := int64(10 * time.Second)
	for i := 0; i < pending; i++ {
		clock.Schedule(time.Duration(rng.Int63n(horizon)), noop)
	}
	first := len(t.spans)
	for s := 0; s < spansN; s++ {
		t.timed("sim.events_1000", -1, s, func() {
			for i := 0; i < perSpan; i++ {
				clock.Schedule(time.Duration(rng.Int63n(horizon)), noop)
				clock.Step()
			}
		})
	}
	res.set("sim.event_ns", median(durationsUS(t.spans[first:], "sim.events_1000"))*1000/perSpan)
}
