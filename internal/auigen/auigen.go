// Package auigen synthesises the reproduction's D_aui: screens containing
// Asymmetric dark UIs with exact AGO/UPO ground truth, plus the non-AUI
// screens used as negatives and as base app content.
//
// The generator follows the empirical distributions the paper measured on
// 1,072 real screenshots (Section III-A): the subject mix of Table I, AGOs
// centred on the screen in ~94.6% of AUIs, UPOs in a corner in ~73.1% of
// AUIs, and box-count marginals matching Table II (744 AGO and 1,103 UPO
// boxes over 1,072 screenshots — i.e. not every AUI has a discrete AGO
// button, and a few have two UPOs).
//
// Difficulty knobs are calibrated so a small detector lands in the paper's
// accuracy range: transparent-background UPOs reproduce the paper's
// dominant false-negative cause, and small low-contrast buttons on non-AUI
// screens reproduce its false-positive cause.
package auigen

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/font"
	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/uikit"
)

// Config tunes the generator. The zero value is the calibrated default.
type Config struct {
	// ObfuscateIDs replaces semantic resource ids with meaningless tokens,
	// the app-hardening that defeats the FraudDroid-like baseline.
	ObfuscateIDs bool
	// CJK renders labels with CJK strings (drawn as block glyphs at this
	// resolution), for the language-generalisation experiment.
	CJK bool
}

// The generator's calibrated draw probabilities.
const (
	// upoTransparentProb is the probability that a UPO has no background
	// fill — the hard cases behind most of the paper's false negatives.
	upoTransparentProb = 0.10
	// agoPresentProb is the probability an AUI has a discrete AGO button
	// (otherwise the whole background is the app-guided surface and no AGO
	// box is labelled): Table II's 744 AGOs on 1,072 screenshots.
	agoPresentProb = 744.0 / 1072.0
	// secondUPOProb is the probability of a second UPO, calibrated to
	// Table II's 1,103 UPOs on 1,072 screenshots.
	secondUPOProb = (1103.0 - 1072.0) / 1072.0
)

// AUI is one generated asymmetric dark UI: a view tree plus ground truth.
type AUI struct {
	// Subject is the Table I context.
	Subject dataset.Subject
	// Root is the content view tree, sized to the (w, h) the builder was
	// given. Coordinates below are in this content coordinate system.
	Root *uikit.View
	// FullScreen requests the full screen rather than the inset content
	// frame when the AUI is shown on a device.
	FullScreen bool
	// Boxes is the labelled ground truth.
	Boxes []dataset.Box
	// AGOIDs and UPOIDs are the resource ids of the option views.
	AGOIDs, UPOIDs []string
	// TextRects are the label regions, blurred by the text-masking
	// experiment of Table IV.
	TextRects []geom.Rect
}

// Generator produces AUIs and negative screens from a deterministic source.
type Generator struct {
	rng *rand.Rand
	cfg Config

	idSeq int
}

// New builds a generator with the given seed and configuration.
func New(seed int64, cfg Config) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// Rand exposes the generator's random source for callers that must stay in
// the same deterministic stream.
func (g *Generator) Rand() *rand.Rand { return g.rng }

// id returns a resource id: the semantic name, or an obfuscated token when
// the configuration demands it (mirroring ProGuard-style resource
// obfuscation).
func (g *Generator) id(semantic string) string {
	if !g.cfg.ObfuscateIDs {
		return semantic
	}
	g.idSeq++
	return fmt.Sprintf("o%04x", g.rng.Intn(0xffff)^g.idSeq)
}

// label picks a random label from pool, or a CJK string when configured.
func (g *Generator) label(pool []string) string {
	if g.cfg.CJK {
		cjk := []string{"立即购买", "打开", "领取", "跳过", "关闭", "升级", "允许"}
		return cjk[g.rng.Intn(len(cjk))]
	}
	return pool[g.rng.Intn(len(pool))]
}

var (
	agoLabels  = []string{"BUY NOW", "OPEN", "GET IT", "INSTALL", "TRY FREE", "CLAIM", "CONTINUE", "JOIN NOW"}
	skipLabels = []string{"SKIP", "LATER", "NO THANKS", "CANCEL", "NOT NOW"}
	headlines  = []string{"MEGA SALE 50% OFF", "FREE GIFT TODAY", "HOT DEAL 9.99", "WIN BIG PRIZES", "LIMITED OFFER", "NEW ARRIVALS"}
)

// vivid returns a saturated attention-grabbing colour for AGOs.
func (g *Generator) vivid() render.Color {
	palette := []render.Color{
		render.RGB(239, 68, 68), render.RGB(249, 115, 22), render.RGB(234, 179, 8),
		render.RGB(34, 197, 94), render.RGB(59, 130, 246), render.RGB(236, 72, 153),
	}
	return palette[g.rng.Intn(len(palette))]
}

// pastel returns a soft background colour.
func (g *Generator) pastel() render.Color {
	base := 200 + g.rng.Intn(56)
	return render.RGB(uint8(base-g.rng.Intn(40)), uint8(base-g.rng.Intn(40)), uint8(base-g.rng.Intn(40)))
}

// corner identifies a screen corner for UPO placement, weighted toward the
// top-right like the real samples (Figure 1).
func (g *Generator) corner() int {
	r := g.rng.Float64()
	switch {
	case r < 0.55:
		return cornerTR
	case r < 0.75:
		return cornerTL
	case r < 0.90:
		return cornerBR
	default:
		return cornerBL
	}
}

const (
	cornerTR = iota
	cornerTL
	cornerBR
	cornerBL
)

// cornerRect positions a size x size box in the chosen corner of a w x h
// area with the given margin.
func cornerRect(corner, w, h, size, margin int) geom.Rect {
	switch corner {
	case cornerTL:
		return geom.Rect{X: margin, Y: margin, W: size, H: size}
	case cornerBR:
		return geom.Rect{X: w - margin - size, Y: h - margin - size, W: size, H: size}
	case cornerBL:
		return geom.Rect{X: margin, Y: h - margin - size, W: size, H: size}
	default: // cornerTR
		return geom.Rect{X: w - margin - size, Y: margin, W: size, H: size}
	}
}

// even rounds v down to an even number. Every option view is aligned to even
// coordinates so that ground-truth boxes remain exactly pixel-aligned after
// the 2:1 screen-to-model-input downsample — real GUI widgets are pixel
// aligned too, which is what lets GUI object detection use strict IoU
// thresholds.
func even(v int) int { return v &^ 1 }

// upoView constructs a close-button UPO inside area (w, h), returning the
// view and its bounds. darkBG selects the chip polarity: real apps put
// light chips on dark scrims and dark translucent chips on bright ad
// content. Difficulty varies: size, margin, opacity and background presence
// are all randomised, with a calibrated share of hard transparent cases.
func (g *Generator) upoView(w, h int, corner, darkBG bool) (*uikit.View, geom.Rect) {
	size := 8 + 2*g.rng.Intn(5) // 8-16 px (even) at 192x320 content scale
	margin := even(2 + g.rng.Intn(6))
	var r geom.Rect
	if corner {
		r = cornerRect(g.corner(), even(w), even(h), size, margin)
	} else {
		// Non-corner UPOs sit under the AGO area, bottom-centre.
		r = geom.Rect{
			X: even(w/2 - size*2 + g.rng.Intn(size)),
			Y: even(h - 2*size - margin - g.rng.Intn(h/8)),
			W: even(size * 3), H: size,
		}
	}
	v := &uikit.View{
		ID:        g.id("btn_close"),
		Kind:      uikit.KindIcon,
		Bounds:    r,
		Clickable: true,
	}
	// The hard subset — transparent or heavily faded UPOs — reproduces the
	// paper's dominant false-negative cause; the rest are small but clearly
	// visible, like real close buttons.
	hard := g.rng.Float64() < upoTransparentProb
	if hard {
		v.Alpha = 0.3 + g.rng.Float64()*0.25
	} else {
		v.Alpha = 0.8 + g.rng.Float64()*0.2
	}
	chip := render.RGB(70, 70, 70).WithAlpha(uint8(180 + g.rng.Intn(70)))
	cross := render.RGB(235, 235, 235)
	if darkBG {
		chip = render.RGB(233, 233, 233).WithAlpha(uint8(200 + g.rng.Intn(55)))
		cross = render.RGB(55, 55, 55)
	}
	if corner {
		if !hard {
			v.Color = chip
			v.Corner = size / 2
		}
		v.Cross = true
		v.CrossColor = cross
		if hard {
			// Chipless faint cross: visible against either polarity but
			// hard for the detector — the paper's FN cases.
			v.CrossColor = render.RGB(150, 150, 150)
		}
	} else {
		// Text-style UPO: a small "skip" pill.
		v.Text = g.label(skipLabels)
		v.TextScale = 1
		if !hard {
			v.Color = chip
			v.Corner = 3
			v.TextColor = cross
		} else {
			v.TextColor = render.Gray
		}
	}
	return v, r
}

// agoView constructs the big app-guided button centred (or, rarely,
// off-centre) in the lower half of the area.
func (g *Generator) agoView(w, h int, label string) (*uikit.View, geom.Rect) {
	bw := even(int(float64(w) * (0.45 + g.rng.Float64()*0.25)))
	bh := even(int(float64(h) * (0.055 + g.rng.Float64()*0.035)))
	x := even((w - bw) / 2)
	if g.rng.Float64() > 0.946 {
		// The rare off-centre AGO of Section III-A.
		x = even(g.rng.Intn(w - bw))
	}
	y := even(int(float64(h) * (0.62 + g.rng.Float64()*0.2)))
	r := geom.Rect{X: x, Y: y, W: bw, H: bh}
	v := &uikit.View{
		ID:        g.id("btn_action"),
		Kind:      uikit.KindButton,
		Bounds:    r,
		Color:     g.vivid(),
		Corner:    bh / 2,
		Text:      label,
		TextScale: 1 + g.rng.Intn(2),
		TextColor: render.White,
		Clickable: true,
	}
	return v, r
}

// textRectOf computes the rectangle the centred label of view v occupies in
// content coordinates, for the masking experiment.
func textRectOf(v *uikit.View, abs geom.Rect) geom.Rect {
	scale := v.TextScale
	if scale < 1 {
		scale = 1
	}
	tw, th := font.Measure(v.Text, scale)
	return geom.Rect{X: abs.X + (abs.W-tw)/2, Y: abs.Y + (abs.H-th)/2, W: tw, H: th}
}
