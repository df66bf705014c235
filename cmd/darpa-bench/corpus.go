package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image/png"
	"math/rand"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/httpd"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// Corpus shape: AUIs are the minority of what a device sees, and 512 unique
// screens means nothing repeats inside a cache-sized window.
const (
	corpusAUI    = 128
	corpusBenign = 384
	// benignSeedOffset decorrelates the benign generator from the AUI one
	// (which composes its popups over benign base screens of its own).
	benignSeedOffset = 7919
)

// resolution is the size screens reach the program at.
type resolution struct{ w, h int }

var (
	resModel = resolution{yolite.InputW, yolite.InputH}         // 96x160: the model's own input
	resAudit = resolution{2 * yolite.InputW, 2 * yolite.InputH} // 192x320: the generator's screen
	resHires = resolution{4 * yolite.InputW, 4 * yolite.InputH} // 384x640
)

// screen is one corpus item: the pixels the program receives and the
// generator's ground truth in the same coordinate system.
type screen struct {
	canvas *render.Canvas
	truth  []dataset.Box // nil for benign screens
	isAUI  bool
}

// buildCorpus renders nAUI labelled AUI screens and nBenign benign ones from
// seed, at res, in a seeded shuffle. The generator lays screens out at
// 192x320 whatever the target (its widget sizes are absolute pixels, and that
// is the layout the shipped weights were trained on); 96x160 is its exact 2:1
// reduction and 384x640 doubles every pixel, the way a denser display shows
// the same layout.
func buildCorpus(seed int64, res resolution, nAUI, nBenign int) ([]screen, error) {
	cfg := auigen.DatasetConfig{ScreenW: resAudit.w, ScreenH: resAudit.h, InputW: res.w, InputH: res.h}
	scale := 1
	switch res {
	case resModel, resAudit:
	case resHires:
		cfg.InputW, cfg.InputH = resAudit.w, resAudit.h
		scale = 2
	default:
		return nil, fmt.Errorf("no corpus at %dx%d", res.w, res.h)
	}
	samples := auigen.BuildAUISamples(seed, nAUI, cfg)
	samples = append(samples, auigen.BuildNegativeSamples(seed+benignSeedOffset, nBenign, cfg)...)
	rand.New(rand.NewSource(seed)).Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	out := make([]screen, len(samples))
	for i, s := range samples {
		sc := screen{canvas: s.Input, truth: s.Boxes, isAUI: s.IsAUI}
		if scale != 1 {
			sc.canvas = pixelDouble(s.Input)
			sc.truth = make([]dataset.Box, len(s.Boxes))
			for j, b := range s.Boxes {
				sc.truth[j] = dataset.Box{Class: b.Class, B: b.B.Scale(float64(scale), float64(scale))}
			}
		}
		out[i] = sc
	}
	return out, nil
}

// pixelDouble returns c at twice the size, every pixel repeated 2x2.
func pixelDouble(c *render.Canvas) *render.Canvas {
	out := render.NewCanvas(2*c.W, 2*c.H)
	row := 4 * out.W
	for y := 0; y < c.H; y++ {
		top := out.Pix[2*y*row : (2*y+1)*row]
		for x := 0; x < c.W; x++ {
			px := c.Pix[4*(y*c.W+x) : 4*(y*c.W+x)+4]
			copy(top[8*x:], px)
			copy(top[8*x+4:], px)
		}
		copy(out.Pix[(2*y+1)*row:(2*y+2)*row], top)
	}
	return out
}

// encodePNGs encodes every screen once, before any timing starts, spreading
// the work over the box's cores. BestSpeed is what a device capturing
// screenshots at run time would pick.
func encodePNGs(corpus []screen) ([][]byte, error) {
	out := make([][]byte, len(corpus))
	errs := make([]error, len(corpus))
	tensor.ParallelFor(len(corpus), func(i int) {
		var buf bytes.Buffer
		enc := png.Encoder{CompressionLevel: png.BestSpeed}
		errs[i] = enc.Encode(&buf, corpus[i].canvas.Image())
		out[i] = buf.Bytes()
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("encoding screen %d: %w", i, err)
		}
	}
	return out, nil
}

// jsonBodies wraps each PNG in the POST /v1/detect JSON body.
func jsonBodies(pngs [][]byte) ([][]byte, error) {
	out := make([][]byte, len(pngs))
	for i, p := range pngs {
		body, err := json.Marshal(httpd.DetectRequest{Screen: base64.StdEncoding.EncodeToString(p)})
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}

// checkPNGRoundTrip confirms, on the first n screens, that decoding the PNG
// the server will receive gives back exactly the canvas it was encoded from.
// That is what lets the reference run on the canvases directly instead of
// paying a decode per screen at set-up.
func checkPNGRoundTrip(corpus []screen, pngs [][]byte, n int) error {
	for i := 0; i < min(n, len(corpus)); i++ {
		img, err := png.Decode(bytes.NewReader(pngs[i]))
		if err != nil {
			return fmt.Errorf("decoding screen %d: %w", i, err)
		}
		got := render.FromImage(img)
		want := corpus[i].canvas
		if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
			return fmt.Errorf("screen %d does not survive a PNG round trip", i)
		}
	}
	return nil
}

// weightsDir is where the shipped weights live, relative to the repo root the
// benchmark runs from. darpa-serve gets the same directory.
const weightsDir = "weights"

// buildFloat loads the shipped float detector the way the daemons do: through
// the registry (which fuses it), with a private activation pool.
func buildFloat() (*yolite.Model, error) {
	det, err := buildBackend("yolite", nil)
	if err != nil {
		return nil, err
	}
	m, ok := det.(*yolite.Model)
	if !ok {
		return nil, fmt.Errorf("registry built %T for yolite", det)
	}
	return m, nil
}

// reference computes, in-process and per screen, what detect.PredictCanvas
// returns on the shipped weights: the answer every served or batched result
// is checked against.
func reference(m *yolite.Model, corpus []screen) [][]metrics.Detection {
	out := make([][]metrics.Detection, len(corpus))
	for i, sc := range corpus {
		out[i] = detect.PredictCanvas(m, sc.canvas, yolite.DefaultConfThresh)
	}
	return out
}

// recallIoU50 is the recall of dets against the generator's boxes at IoU 0.5
// over the AUI screens marked seen (a nil seen means all of them). Benign
// screens have no truth and do not enter.
func recallIoU50(corpus []screen, dets [][]metrics.Detection, seen []bool) (recall float64, screens int) {
	ev := metrics.NewEvaluation()
	for i, sc := range corpus {
		if !sc.isAUI || (seen != nil && !seen[i]) {
			continue
		}
		ev.AddSample(dets[i], sc.truth, 0.5)
		screens++
	}
	return ev.All().Recall(), screens
}

// sameDetections reports whether got equals want: class and box exactly,
// score within 1e-6.
func sameDetections(got, want []metrics.Detection) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Class != want[i].Class || got[i].B != want[i].B {
			return false
		}
		if d := got[i].Score - want[i].Score; d > 1e-6 || d < -1e-6 {
			return false
		}
	}
	return true
}
