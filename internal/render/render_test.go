package render

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestFillOpaque(t *testing.T) {
	c := NewCanvas(10, 10)
	c.Fill(geom.Rect{X: 2, Y: 3, W: 4, H: 5}, Red)
	if got := c.At(2, 3); got != Red {
		t.Fatalf("inside pixel = %v", got)
	}
	if got := c.At(5, 7); got != Red {
		t.Fatalf("bottom-right inside pixel = %v", got)
	}
	if got := c.At(6, 3); got != (Color{}) {
		t.Fatalf("outside pixel = %v, want transparent", got)
	}
	if got := c.At(1, 3); got != (Color{}) {
		t.Fatalf("left-outside pixel = %v, want transparent", got)
	}
}

func TestFillClampsToCanvas(t *testing.T) {
	c := NewCanvas(4, 4)
	c.Fill(geom.Rect{X: -10, Y: -10, W: 100, H: 100}, Blue)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if c.At(x, y) != Blue {
				t.Fatalf("pixel (%d,%d) = %v", x, y, c.At(x, y))
			}
		}
	}
}

func TestBlendTranslucent(t *testing.T) {
	c := NewCanvas(1, 1)
	c.Set(0, 0, White)
	c.Blend(0, 0, Black.WithAlpha(128))
	got := c.At(0, 0)
	// 50% black over white ~ mid gray.
	if got.R < 120 || got.R > 135 || got.R != got.G || got.G != got.B {
		t.Fatalf("blend result = %v, want mid gray", got)
	}
	if got.A != 255 {
		t.Fatalf("alpha = %d, want 255", got.A)
	}
}

func TestBlendZeroAlphaNoop(t *testing.T) {
	c := NewCanvas(1, 1)
	c.Set(0, 0, Green)
	c.Blend(0, 0, Red.WithAlpha(0))
	if c.At(0, 0) != Green {
		t.Fatalf("zero-alpha blend changed pixel to %v", c.At(0, 0))
	}
}

func TestOutOfBoundsAccess(t *testing.T) {
	c := NewCanvas(2, 2)
	c.Set(-1, 0, Red)
	c.Set(0, 5, Red)
	c.Blend(9, 9, Red)
	if got := c.At(-1, -1); got != (Color{}) {
		t.Fatalf("OOB read = %v", got)
	}
}

func TestStroke(t *testing.T) {
	c := NewCanvas(20, 20)
	r := geom.Rect{X: 5, Y: 5, W: 10, H: 10}
	c.Stroke(r, 2, Green)
	if c.At(5, 5) != Green || c.At(14, 14) != Green {
		t.Fatal("stroke corners not painted")
	}
	if c.At(10, 10) != (Color{}) {
		t.Fatal("stroke filled the interior")
	}
	if c.At(4, 4) != (Color{}) {
		t.Fatal("stroke painted outside the rect")
	}
}

func TestFillRoundedCorners(t *testing.T) {
	c := NewCanvas(40, 40)
	r := geom.Rect{X: 0, Y: 0, W: 40, H: 40}
	c.FillRounded(r, 10, Blue)
	if c.At(0, 0) != (Color{}) {
		t.Fatal("rounded rect painted its sharp corner")
	}
	if c.At(20, 20) != Blue {
		t.Fatal("rounded rect centre not painted")
	}
	if c.At(20, 0) != Blue {
		t.Fatal("rounded rect top edge midpoint not painted")
	}
}

func TestFillRoundedZeroRadiusEqualsFill(t *testing.T) {
	a, b := NewCanvas(10, 10), NewCanvas(10, 10)
	r := geom.Rect{X: 1, Y: 1, W: 8, H: 8}
	a.FillRounded(r, 0, Red)
	b.Fill(r, Red)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("radius-0 rounded fill differs from plain fill")
		}
	}
}

func TestDrawComposites(t *testing.T) {
	dst := NewCanvas(10, 10)
	dst.Fill(dst.Bounds(), White)
	src := NewCanvas(4, 4)
	src.Fill(src.Bounds(), Red)
	dst.Draw(src, 3, 3)
	if dst.At(3, 3) != Red || dst.At(6, 6) != Red {
		t.Fatal("draw did not composite src")
	}
	if dst.At(2, 2) != White || dst.At(7, 7) != White {
		t.Fatal("draw painted outside src bounds")
	}
}

func TestDrawRespectsAlpha(t *testing.T) {
	dst := NewCanvas(2, 2)
	dst.Fill(dst.Bounds(), White)
	src := NewCanvas(2, 2) // fully transparent
	dst.Draw(src, 0, 0)
	if dst.At(0, 0) != White {
		t.Fatal("transparent draw overwrote destination")
	}
}

func TestSubImage(t *testing.T) {
	c := NewCanvas(10, 10)
	c.Fill(geom.Rect{X: 2, Y: 2, W: 3, H: 3}, Orange)
	sub := c.SubImage(geom.Rect{X: 2, Y: 2, W: 3, H: 3})
	if sub.W != 3 || sub.H != 3 {
		t.Fatalf("sub size = %dx%d", sub.W, sub.H)
	}
	if sub.At(0, 0) != Orange || sub.At(2, 2) != Orange {
		t.Fatal("sub pixels wrong")
	}
	// Mutating the sub image must not affect the parent.
	sub.Fill(sub.Bounds(), Black)
	if c.At(2, 2) != Orange {
		t.Fatal("SubImage aliases parent pixels")
	}
}

func TestBoxBlurSmoothsEdge(t *testing.T) {
	c := NewCanvas(10, 10)
	c.Fill(geom.Rect{X: 0, Y: 0, W: 5, H: 10}, White)
	c.Fill(geom.Rect{X: 5, Y: 0, W: 5, H: 10}, Black)
	c.BoxBlur(c.Bounds(), 2)
	edge := c.At(5, 5)
	if edge.R == 0 || edge.R == 255 {
		t.Fatalf("blur left hard edge: %v", edge)
	}
}

func TestBoxBlurPreservesFlatRegion(t *testing.T) {
	c := NewCanvas(8, 8)
	c.Fill(c.Bounds(), Blue)
	c.BoxBlur(c.Bounds(), 3)
	if got := c.At(4, 4); got != Blue {
		t.Fatalf("blur changed flat region: %v", got)
	}
}

func TestResizePreservesFlatColour(t *testing.T) {
	c := NewCanvas(20, 30)
	c.Fill(c.Bounds(), Green)
	small := c.Resize(7, 11)
	if small.W != 7 || small.H != 11 {
		t.Fatalf("resize dims = %dx%d", small.W, small.H)
	}
	for y := 0; y < small.H; y++ {
		for x := 0; x < small.W; x++ {
			if small.At(x, y) != Green {
				t.Fatalf("resized pixel (%d,%d) = %v", x, y, small.At(x, y))
			}
		}
	}
}

func TestResizeDownThenContrastSurvives(t *testing.T) {
	c := NewCanvas(64, 64)
	c.Fill(c.Bounds(), White)
	c.Fill(geom.Rect{X: 16, Y: 16, W: 32, H: 32}, Black)
	small := c.Resize(16, 16)
	centre, corner := small.At(8, 8), small.At(1, 1)
	if centre.Luma() > 60 {
		t.Fatalf("centre luma = %v, want dark", centre.Luma())
	}
	if corner.Luma() < 200 {
		t.Fatalf("corner luma = %v, want bright", corner.Luma())
	}
}

func TestDrawCross(t *testing.T) {
	c := NewCanvas(12, 12)
	c.DrawCross(geom.Rect{X: 2, Y: 2, W: 8, H: 8}, 1, DarkGray)
	if c.At(2, 2) != DarkGray {
		t.Fatal("cross missing top-left diagonal")
	}
	if c.At(2, 9) != DarkGray {
		t.Fatal("cross missing bottom-left diagonal")
	}
}

func TestCircle(t *testing.T) {
	c := NewCanvas(21, 21)
	c.FillCircle(10, 10, 5, Red)
	if c.At(10, 10) != Red {
		t.Fatal("circle centre not painted")
	}
	if c.At(10, 4) == (Color{}) && c.At(10, 5) == (Color{}) {
		t.Fatal("circle top not painted")
	}
	if c.At(0, 0) != (Color{}) {
		t.Fatal("circle painted far corner")
	}
}

func TestZero(t *testing.T) {
	c := NewCanvas(4, 4)
	c.Fill(c.Bounds(), Red)
	c.Zero()
	for _, p := range c.Pix {
		if p != 0 {
			t.Fatal("Zero left non-zero bytes")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := NewCanvas(3, 3)
	a.Fill(a.Bounds(), Blue)
	b := a.Clone()
	b.Fill(b.Bounds(), Red)
	if a.At(1, 1) != Blue {
		t.Fatal("clone aliases parent")
	}
}

func TestImageRoundTrip(t *testing.T) {
	c := NewCanvas(5, 5)
	c.Fill(geom.Rect{X: 1, Y: 1, W: 2, H: 2}, Orange)
	back := FromImage(c.Image())
	for i := range c.Pix {
		if c.Pix[i] != back.Pix[i] {
			t.Fatal("image round trip lost pixels")
		}
	}
}

func TestContrastAndLuma(t *testing.T) {
	if d := White.Luma() - Black.Luma(); d < 250 {
		t.Fatalf("white/black luma contrast = %v", d)
	}
	if White.Luma() <= Gray.Luma() || Gray.Luma() <= Black.Luma() {
		t.Fatal("luma ordering broken")
	}
}

// Property: blending any colour over any base keeps channels in range and is
// a no-op at alpha 0.
func TestPropertyBlendInRange(t *testing.T) {
	prop := func(br, bg, bb, sr, sg, sb, sa uint8) bool {
		c := NewCanvas(1, 1)
		c.Set(0, 0, Color{br, bg, bb, 255})
		c.Blend(0, 0, Color{sr, sg, sb, sa})
		got := c.At(0, 0)
		if sa == 0 {
			return got == Color{br, bg, bb, 255}
		}
		lo := func(s, d uint8) bool {
			minv, maxv := s, d
			if minv > maxv {
				minv, maxv = maxv, minv
			}
			return got.A == 255
		}
		return lo(sr, br) && got.A == 255
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestNewCanvasInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCanvas(0,5) did not panic")
		}
	}()
	NewCanvas(0, 5)
}

func BenchmarkFill(b *testing.B) {
	c := NewCanvas(360, 640)
	r := c.Bounds()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Fill(r, White)
	}
}

func BenchmarkResizeScreenshotToModelInput(b *testing.B) {
	c := screenCanvas(360, 640)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Resize(96, 160)
	}
}

func TestDownsample2xAverages(t *testing.T) {
	c := NewCanvas(4, 4)
	c.Fill(geom.Rect{X: 0, Y: 0, W: 2, H: 2}, White)
	// Other three quadrants stay transparent black.
	d := c.Downsample2x()
	if d.W != 2 || d.H != 2 {
		t.Fatalf("downsampled size %dx%d", d.W, d.H)
	}
	if got := d.At(0, 0); got.R != 255 || got.A != 255 {
		t.Fatalf("white quadrant averaged to %v", got)
	}
	if got := d.At(1, 1); got != (Color{}) {
		t.Fatalf("black quadrant averaged to %v", got)
	}
}

func TestDownsample2xPreservesEvenAlignedEdge(t *testing.T) {
	c := NewCanvas(20, 20)
	c.Fill(c.Bounds(), White)
	c.Fill(geom.Rect{X: 4, Y: 4, W: 8, H: 8}, Black) // even-aligned square
	d := c.Downsample2x()
	// The square maps exactly to (2,2)+4x4 with full contrast.
	if d.At(2, 2) != Black || d.At(5, 5) != Black {
		t.Fatal("even-aligned square lost its body")
	}
	if d.At(1, 1) != White || d.At(6, 6) != White {
		t.Fatal("even-aligned square bled outside")
	}
}

func TestDownscale4to1KeepsThinStrokes(t *testing.T) {
	// A 4px-wide stroke at device resolution must survive 4:1 reduction —
	// this is the aliasing bug plain bilinear had.
	c := NewCanvas(64, 64)
	c.Fill(c.Bounds(), White)
	c.Fill(geom.Rect{X: 30, Y: 0, W: 4, H: 64}, Black)
	d := c.Downscale(16, 16)
	found := false
	for x := 0; x < 16; x++ {
		if d.At(x, 8).Luma() < 160 {
			found = true
		}
	}
	if !found {
		t.Fatal("4px stroke vanished after 4:1 downscale")
	}
}

func TestDownscaleOddRatioFallsBack(t *testing.T) {
	c := NewCanvas(30, 50)
	c.Fill(c.Bounds(), Blue)
	d := c.Downscale(7, 11)
	if d.W != 7 || d.H != 11 {
		t.Fatalf("downscaled to %dx%d", d.W, d.H)
	}
	if d.At(3, 5) != Blue {
		t.Fatalf("flat colour lost: %v", d.At(3, 5))
	}
}
