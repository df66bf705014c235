package auigen

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/uikit"
)

// AUIFor builds an AUI of the given subject sized to a w x h content area.
func (g *Generator) AUIFor(subject dataset.Subject, w, h int) *AUI {
	if w < 64 || h < 96 {
		panic(fmt.Sprintf("auigen: content area %dx%d too small", w, h))
	}
	var a *AUI
	switch subject {
	case dataset.SubjectAdvertisement:
		a = g.buildAdvertisement(w, h)
	case dataset.SubjectSalesPromotion:
		a = g.buildPromotion(w, h)
	case dataset.SubjectLuckyMoney:
		a = g.buildLuckyMoney(w, h)
	case dataset.SubjectAppUpgrade:
		a = g.buildUpgrade(w, h)
	case dataset.SubjectOperationGuide:
		a = g.buildGuide(w, h)
	case dataset.SubjectFeedbackRequest:
		a = g.buildFeedback(w, h)
	case dataset.SubjectPermissionRequest:
		a = g.buildPermission(w, h)
	default:
		panic(fmt.Sprintf("auigen: unknown subject %v", subject))
	}
	a.Subject = subject
	return a
}

// AUI builds an AUI with a subject drawn from the Table I distribution.
func (g *Generator) AUI(w, h int) *AUI {
	return g.AUIFor(dataset.SampleSubject(g.rng), w, h)
}

// addUPO appends a corner (or inline) UPO to root and records its label.
func (g *Generator) addUPO(a *AUI, root *uikit.View, w, h int, corner, darkBG bool) {
	v, r := g.upoView(w, h, corner, darkBG)
	root.Add(v)
	a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassUPO, B: geom.BoxFromRect(r)})
	a.UPOIDs = append(a.UPOIDs, v.ID)
}

// addAGO appends the app-guided button (when the distribution says the AUI
// has a discrete one) and records its label. It returns whether a button was
// added.
func (g *Generator) addAGO(a *AUI, root *uikit.View, w, h int, label string) bool {
	if g.rng.Float64() >= agoPresentProb {
		// No discrete AGO: the whole background is the app-guided surface.
		root.Clickable = true
		if root.ID == "" {
			root.ID = g.id("content_surface")
		}
		return false
	}
	v, r := g.agoView(w, h, label)
	root.Add(v)
	a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassAGO, B: geom.BoxFromRect(r)})
	a.AGOIDs = append(a.AGOIDs, v.ID)
	a.TextRects = append(a.TextRects, textRectOf(v, r))
	return true
}

// buildAdvertisement is the dominant AUI (64.9%): a full-screen ad with a
// tiny close button (Figure 2a).
func (g *Generator) buildAdvertisement(w, h int) *AUI {
	a := &AUI{FullScreen: g.rng.Float64() < 0.6}
	root := &uikit.View{ID: g.id("ad_container"), Kind: uikit.KindContainer,
		Bounds: geom.Rect{W: w, H: h}}
	// Gradient backdrop.
	top, bottom := g.vivid().WithAlpha(255), g.pastel()
	bg := &uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{W: w, H: h}, Color: top}
	root.Add(bg)
	root.Add(&uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{Y: h / 2, W: w, H: h / 2}, Color: bottom})
	// Product hero block.
	pw, ph := int(float64(w)*0.55), int(float64(h)*0.28)
	root.Add(&uikit.View{ID: g.id("ad_image"), Kind: uikit.KindImage,
		Bounds: geom.Rect{X: (w - pw) / 2, Y: h / 6, W: pw, H: ph},
		Color:  g.pastel(), Corner: 6})
	// Headline.
	head := &uikit.View{Kind: uikit.KindText, Bounds: geom.Rect{X: w / 10, Y: h/6 + ph + 8, W: 8 * w / 10, H: 18},
		Text: g.label(headlines), TextScale: 1, TextColor: render.White}
	root.Add(head)
	a.TextRects = append(a.TextRects, textRectOf(head, head.Bounds))
	// Regulatory "AD" tag, tiny and low-contrast like the real thing.
	root.Add(&uikit.View{ID: g.id("ad_tag"), Kind: uikit.KindText,
		Bounds: geom.Rect{X: 2, Y: h - 10, W: 14, H: 8},
		Text:   "AD", TextScale: 1, TextColor: render.Gray, Alpha: 0.5})
	g.addAGO(a, root, w, h, g.label(agoLabels))
	// ~78% corner UPOs among ads keeps the global corner rate near 73.1%
	// once the dialog subjects (inline UPOs) are mixed in.
	g.addUPO(a, root, w, h, g.rng.Float64() < 0.78, false)
	if g.rng.Float64() < secondUPOProb {
		g.addUPO(a, root, w, h, true, false)
	}
	a.Root = root
	return a
}

// dialogCard builds the centred card used by the dialog-style subjects and
// returns the card view plus its bounds.
func (g *Generator) dialogCard(w, h int, cw, ch int) (*uikit.View, geom.Rect, *uikit.View) {
	root := &uikit.View{ID: g.id("dialog_root"), Kind: uikit.KindContainer,
		Bounds: geom.Rect{W: w, H: h},
		Color:  render.Black.WithAlpha(110)} // dim scrim
	cw, ch = even(cw), even(ch)
	r := geom.Rect{X: even((w - cw) / 2), Y: even((h - ch) / 2), W: cw, H: ch}
	card := &uikit.View{ID: g.id("dialog_card"), Kind: uikit.KindContainer,
		Bounds: r, Color: render.White, Corner: 8}
	root.Add(card)
	return root, r, card
}

// buildPromotion is the in-app sales-promotion AUI (16.7%, Figure 2b).
func (g *Generator) buildPromotion(w, h int) *AUI {
	a := &AUI{}
	cw := even(int(float64(w) * (0.72 + g.rng.Float64()*0.16)))
	ch := even(int(float64(h) * (0.42 + g.rng.Float64()*0.16)))
	root, cardR, card := g.dialogCard(w, h, cw, ch)
	// Banner art inside the card.
	card.Add(&uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{X: 8, Y: 8, W: cw - 16, H: ch / 3},
		Color: g.vivid().WithAlpha(200), Corner: 4})
	head := &uikit.View{Kind: uikit.KindText, Bounds: geom.Rect{X: 8, Y: ch/3 + 14, W: cw - 16, H: 14},
		Text: g.label(headlines), TextScale: 1, TextColor: render.DarkGray}
	card.Add(head)
	a.TextRects = append(a.TextRects, textRectOf(head, head.Bounds.Translate(cardR.X, cardR.Y)))
	// AGO inside the card, recorded in content coordinates.
	if g.rng.Float64() < agoPresentProb {
		bw := even(int(float64(cw) * (0.62 + g.rng.Float64()*0.16)))
		bh := even(int(float64(ch) * (0.13 + g.rng.Float64()*0.07)))
		br := geom.Rect{X: even((cw - bw) / 2), Y: even(ch - bh - ch/8), W: bw, H: bh}
		btn := &uikit.View{ID: g.id("promo_join"), Kind: uikit.KindButton, Bounds: br,
			Color: g.vivid(), Corner: bh / 2, Text: g.label(agoLabels), TextScale: 1,
			TextColor: render.White, Clickable: true}
		card.Add(btn)
		abs := br.Translate(cardR.X, cardR.Y)
		a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassAGO, B: geom.BoxFromRect(abs)})
		a.AGOIDs = append(a.AGOIDs, btn.ID)
		a.TextRects = append(a.TextRects, textRectOf(btn, abs))
	} else {
		card.Clickable = true
	}
	// UPO: X at the card's top-right shoulder (still a screen corner zone
	// only when the card is tall; most are "card corners", which the layout
	// statistics count via centre position).
	size := 8 + 2*g.rng.Intn(4)
	ur := geom.Rect{X: cardR.MaxX() - size - 2, Y: even(cardR.Y - size/2), W: size, H: size}
	if g.rng.Float64() < 0.5 {
		// Or a true screen corner.
		ur = cornerRect(g.corner(), even(w), even(h), size, even(4+g.rng.Intn(5)))
	}
	upo := &uikit.View{ID: g.id("promo_close"), Kind: uikit.KindIcon, Bounds: ur,
		Cross: true, CrossColor: render.RGB(55, 55, 55), Clickable: true,
		Alpha: 0.8 + g.rng.Float64()*0.2}
	if g.rng.Float64() >= upoTransparentProb {
		upo.Color = render.RGB(233, 233, 233).WithAlpha(uint8(200 + g.rng.Intn(55)))
		upo.Corner = size / 2
	} else {
		upo.CrossColor = render.RGB(150, 150, 150)
		upo.Alpha = 0.3 + g.rng.Float64()*0.3
	}
	root.Add(upo)
	a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassUPO, B: geom.BoxFromRect(ur)})
	a.UPOIDs = append(a.UPOIDs, upo.ID)
	a.Root = root
	return a
}

// buildLuckyMoney is the red-packet AUI (12.2%, Figure 2c).
func (g *Generator) buildLuckyMoney(w, h int) *AUI {
	a := &AUI{}
	cw := even(int(float64(w) * (0.64 + g.rng.Float64()*0.16)))
	ch := even(int(float64(h) * (0.48 + g.rng.Float64()*0.14)))
	root, cardR, card := g.dialogCard(w, h, cw, ch)
	card.Color = render.RGB(200, 32, 38) // red packet
	card.Corner = 10
	head := &uikit.View{Kind: uikit.KindText, Bounds: geom.Rect{X: 6, Y: ch / 8, W: cw - 12, H: 14},
		Text: "LUCKY MONEY", TextScale: 1, TextColor: render.RGB(255, 215, 120)}
	card.Add(head)
	a.TextRects = append(a.TextRects, textRectOf(head, head.Bounds.Translate(cardR.X, cardR.Y)))
	// Golden "open" disc: the AGO.
	if g.rng.Float64() < agoPresentProb {
		d := even(int(float64(cw) * (0.30 + g.rng.Float64()*0.12)))
		br := geom.Rect{X: even((cw - d) / 2), Y: even(ch/2 - d/4), W: d, H: d}
		btn := &uikit.View{ID: g.id("packet_open"), Kind: uikit.KindButton, Bounds: br,
			Color: render.RGB(252, 202, 70), Corner: d / 2, Text: g.label([]string{"OPEN", "GET"}),
			TextScale: 1, TextColor: render.RGB(120, 40, 20), Clickable: true}
		card.Add(btn)
		abs := br.Translate(cardR.X, cardR.Y)
		a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassAGO, B: geom.BoxFromRect(abs)})
		a.AGOIDs = append(a.AGOIDs, btn.ID)
		a.TextRects = append(a.TextRects, textRectOf(btn, abs))
	} else {
		card.Clickable = true
	}
	g.addUPO(a, root, w, h, true, true)
	a.Root = root
	return a
}

// buildUpgrade is the app-upgrade AUI (4.0%, Figure 2d): a dialog with a
// huge "upgrade" button and a small inline "later" option.
func (g *Generator) buildUpgrade(w, h int) *AUI {
	a := &AUI{}
	cw := even(int(float64(w) * (0.78 + g.rng.Float64()*0.14)))
	ch := even(int(float64(h) * (0.28 + g.rng.Float64()*0.12)))
	root, cardR, card := g.dialogCard(w, h, cw, ch)
	head := &uikit.View{Kind: uikit.KindText, Bounds: geom.Rect{X: 8, Y: 10, W: cw - 16, H: 14},
		Text: "NEW VERSION 8.2", TextScale: 1, TextColor: render.DarkGray}
	card.Add(head)
	a.TextRects = append(a.TextRects, textRectOf(head, head.Bounds.Translate(cardR.X, cardR.Y)))
	// AGO: wide yellow upgrade button.
	bw := even(int(float64(cw) * (0.7 + g.rng.Float64()*0.16)))
	bh := even(int(float64(ch) * (0.22 + g.rng.Float64()*0.1)))
	br := geom.Rect{X: even((cw - bw) / 2), Y: even(ch/2 - bh/4), W: bw, H: bh}
	btn := &uikit.View{ID: g.id("btn_upgrade"), Kind: uikit.KindButton, Bounds: br,
		Color: render.RGB(250, 190, 30), Corner: bh / 2, Text: "UPGRADE NOW",
		TextScale: 1, TextColor: render.White, Clickable: true}
	card.Add(btn)
	absB := br.Translate(cardR.X, cardR.Y)
	a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassAGO, B: geom.BoxFromRect(absB)})
	a.AGOIDs = append(a.AGOIDs, btn.ID)
	a.TextRects = append(a.TextRects, textRectOf(btn, absB))
	// UPO: small grey "later" text under it — a non-corner UPO.
	uw, uh := even(int(float64(cw)*(0.24+g.rng.Float64()*0.12))), 10
	ur := geom.Rect{X: even((cw - uw) / 2), Y: br.MaxY() + 6, W: uw, H: uh}
	upo := &uikit.View{ID: g.id("btn_later"), Kind: uikit.KindText, Bounds: ur,
		Text: g.label(skipLabels), TextScale: 1, TextColor: render.Gray,
		Clickable: true, Alpha: 0.5 + g.rng.Float64()*0.5}
	if g.rng.Float64() >= upoTransparentProb {
		upo.Color = render.RGB(182, 186, 190).WithAlpha(uint8(220 + g.rng.Intn(36)))
		upo.Corner = 3
	}
	card.Add(upo)
	absU := ur.Translate(cardR.X, cardR.Y)
	a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassUPO, B: geom.BoxFromRect(absU)})
	a.UPOIDs = append(a.UPOIDs, upo.ID)
	a.Root = root
	return a
}

// buildGuide is the operation-guide AUI (1.5%): a dark coach-mark overlay
// with a prominent "next" and a hidden "skip".
func (g *Generator) buildGuide(w, h int) *AUI {
	a := &AUI{FullScreen: true}
	root := &uikit.View{ID: g.id("guide_overlay"), Kind: uikit.KindContainer,
		Bounds: geom.Rect{W: w, H: h}, Color: render.Black.WithAlpha(170)}
	// Highlighted feature bubble.
	d := w / 3
	root.Add(&uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{X: w/2 - d/2, Y: h / 4, W: d, H: d},
		Color: render.White.WithAlpha(230), Corner: d / 2})
	g.addAGO(a, root, w, h, "NEXT")
	g.addUPO(a, root, w, h, true, true)
	a.Root = root
	return a
}

// buildFeedback is the rate-us AUI (0.4%).
func (g *Generator) buildFeedback(w, h int) *AUI {
	a := &AUI{}
	cw := even(int(float64(w) * (0.72 + g.rng.Float64()*0.16)))
	ch := even(int(float64(h) * (0.34 + g.rng.Float64()*0.12)))
	root, cardR, card := g.dialogCard(w, h, cw, ch)
	head := &uikit.View{Kind: uikit.KindText, Bounds: geom.Rect{X: 8, Y: 10, W: cw - 16, H: 14},
		Text: "ENJOYING THE APP?", TextScale: 1, TextColor: render.DarkGray}
	card.Add(head)
	a.TextRects = append(a.TextRects, textRectOf(head, head.Bounds.Translate(cardR.X, cardR.Y)))
	// Star row.
	for i := 0; i < 5; i++ {
		card.Add(&uikit.View{Kind: uikit.KindIcon,
			Bounds: geom.Rect{X: cw/2 - 40 + i*17, Y: ch / 3, W: 12, H: 12},
			Color:  render.RGB(250, 200, 60), Corner: 6})
	}
	bw := even(int(float64(cw) * (0.62 + g.rng.Float64()*0.16)))
	bh := even(int(float64(ch) * (0.18 + g.rng.Float64()*0.1)))
	br := geom.Rect{X: even((cw - bw) / 2), Y: even(2 * ch / 3), W: bw, H: bh}
	btn := &uikit.View{ID: g.id("btn_rate"), Kind: uikit.KindButton, Bounds: br,
		Color: g.vivid(), Corner: bh / 2, Text: "RATE 5 STARS", TextScale: 1,
		TextColor: render.White, Clickable: true}
	card.Add(btn)
	absB := br.Translate(cardR.X, cardR.Y)
	a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassAGO, B: geom.BoxFromRect(absB)})
	a.AGOIDs = append(a.AGOIDs, btn.ID)
	a.TextRects = append(a.TextRects, textRectOf(btn, absB))
	g.addUPO(a, root, w, h, g.rng.Float64() < 0.5, true)
	a.Root = root
	return a
}

// buildPermission is the sensitive-permission AUI (0.3%): "allow" shouting,
// "deny" whispering.
func (g *Generator) buildPermission(w, h int) *AUI {
	a := &AUI{}
	cw := even(int(float64(w) * (0.78 + g.rng.Float64()*0.14)))
	ch := even(int(float64(h) * (0.26 + g.rng.Float64()*0.1)))
	root, cardR, card := g.dialogCard(w, h, cw, ch)
	head := &uikit.View{Kind: uikit.KindText, Bounds: geom.Rect{X: 8, Y: 8, W: cw - 16, H: 24},
		Text: "ALLOW LOCATION?", TextScale: 1, TextColor: render.DarkGray}
	card.Add(head)
	a.TextRects = append(a.TextRects, textRectOf(head, head.Bounds.Translate(cardR.X, cardR.Y)))
	bw := even(int(float64(cw) * (0.68 + g.rng.Float64()*0.14)))
	bh := even(int(float64(ch) * (0.26 + g.rng.Float64()*0.1)))
	br := geom.Rect{X: even((cw - bw) / 2), Y: even(ch/2 - bh/6), W: bw, H: bh}
	btn := &uikit.View{ID: g.id("btn_allow"), Kind: uikit.KindButton, Bounds: br,
		Color: render.Blue, Corner: bh / 2, Text: "ALLOW", TextScale: 1,
		TextColor: render.White, Clickable: true}
	card.Add(btn)
	absB := br.Translate(cardR.X, cardR.Y)
	a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassAGO, B: geom.BoxFromRect(absB)})
	a.AGOIDs = append(a.AGOIDs, btn.ID)
	a.TextRects = append(a.TextRects, textRectOf(btn, absB))
	// UPO: "deny" in small grey text at the card bottom.
	uw, uh := even(int(float64(cw)*(0.2+g.rng.Float64()*0.1))), 10
	ur := geom.Rect{X: even((cw - uw) / 2), Y: br.MaxY() + 4, W: uw, H: uh}
	upo := &uikit.View{ID: g.id("btn_deny"), Kind: uikit.KindText, Bounds: ur,
		Text: "DENY", TextScale: 1, TextColor: render.Gray, Clickable: true,
		Alpha: 0.45 + g.rng.Float64()*0.5}
	if g.rng.Float64() >= upoTransparentProb {
		upo.Color = render.RGB(182, 186, 190).WithAlpha(uint8(220 + g.rng.Intn(36)))
		upo.Corner = 3
	}
	card.Add(upo)
	absU := ur.Translate(cardR.X, cardR.Y)
	a.Boxes = append(a.Boxes, dataset.Box{Class: dataset.ClassUPO, B: geom.BoxFromRect(absU)})
	a.UPOIDs = append(a.UPOIDs, upo.ID)
	a.Root = root
	return a
}
