package render

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"math/rand"
	"testing"
)

// The front end's pixel path: png.Decode -> FromImage -> Downscale. These
// tests pin FromImage against a per-pixel reference for every image type
// png.Decode can return, pin the box filter against the loop it replaced,
// and pin the allocation counts the serve-hires budget depends on.

// refFromImage is the definition FromImage must meet: each pixel converted
// to non-premultiplied 8-bit RGBA on its own.
func refFromImage(img image.Image) *Canvas {
	b := img.Bounds()
	c := NewCanvas(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			n := color.NRGBAModel.Convert(img.At(b.Min.X+x, b.Min.Y+y)).(color.NRGBA)
			c.Set(x, y, Color{n.R, n.G, n.B, n.A})
		}
	}
	return c
}

// pngImageTypes builds one w x h image of every type png.Decode returns,
// filled from rng with the full alpha range (premultiplied types get valid
// premultiplied values), plus a fully opaque *image.RGBA — the layout a
// screenshot decodes to.
func pngImageTypes(rng *rand.Rand, w, h int) map[string]image.Image {
	r := image.Rect(0, 0, w, h)
	fill := func(pix []uint8) {
		for i := range pix {
			pix[i] = uint8(rng.Intn(256))
		}
	}
	nrgba := image.NewNRGBA(r)
	fill(nrgba.Pix)
	nrgba64 := image.NewNRGBA64(r)
	fill(nrgba64.Pix)
	gray := image.NewGray(r)
	fill(gray.Pix)
	gray16 := image.NewGray16(r)
	fill(gray16.Pix)

	rgba, opaque, rgba64 := image.NewRGBA(r), image.NewRGBA(r), image.NewRGBA64(r)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := rng.Intn(256)
			rgba.SetRGBA(x, y, color.RGBA{uint8(rng.Intn(a + 1)), uint8(rng.Intn(a + 1)), uint8(rng.Intn(a + 1)), uint8(a)})
			opaque.SetRGBA(x, y, color.RGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), 255})
			a16 := rng.Intn(1 << 16)
			rgba64.SetRGBA64(x, y, color.RGBA64{uint16(rng.Intn(a16 + 1)), uint16(rng.Intn(a16 + 1)), uint16(rng.Intn(a16 + 1)), uint16(a16)})
		}
	}

	// What PLTE + tRNS decodes to: non-premultiplied entries with every
	// alpha (the low ones do not survive a premultiplied round trip), opaque
	// premultiplied ones for the rest.
	pal := make(color.Palette, 256)
	for i := range pal {
		pal[i] = color.RGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), 255}
		if i%2 == 0 {
			pal[i] = color.NRGBA{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(i)}
		}
	}
	paletted := image.NewPaletted(r, pal)
	fill(paletted.Pix)

	return map[string]image.Image{
		"RGBA": rgba, "RGBA-opaque": opaque, "NRGBA": nrgba, "Gray": gray, "Gray16": gray16,
		"Paletted": paletted, "RGBA64": rgba64, "NRGBA64": nrgba64,
	}
}

type subImager interface {
	SubImage(image.Rectangle) image.Image
}

func sameCanvas(a, b *Canvas) bool {
	return a.W == b.W && a.H == b.H && bytes.Equal(a.Pix, b.Pix)
}

func TestFromImageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, img := range pngImageTypes(rng, 33, 31) {
		want := refFromImage(img) // before FromImage may adopt img's buffer
		if got := FromImage(img); !sameCanvas(got, want) {
			t.Errorf("%s: FromImage differs from the per-pixel reference", name)
		}
	}
	// A window whose origin is not (0,0) and whose stride is wider than its
	// row: no buffer to adopt, rows must be picked out one by one.
	for name, img := range pngImageTypes(rng, 33, 31) {
		sub := img.(subImager).SubImage(image.Rect(2, 1, 29, 30))
		want := refFromImage(sub)
		got := FromImage(sub)
		if !sameCanvas(got, want) {
			t.Errorf("%s sub-image: FromImage differs from the per-pixel reference", name)
		}
		got.Zero()
		if !sameCanvas(refFromImage(sub), want) {
			t.Errorf("%s sub-image: canvas aliases the parent image", name)
		}
	}
}

// TestFromImageAdoptsContiguousPix pins the ownership rule in FromImage's
// doc comment: the two 8-bit screenshot layouts hand their buffer over.
func TestFromImageAdoptsContiguousPix(t *testing.T) {
	imgs := pngImageTypes(rand.New(rand.NewSource(14)), 6, 4)
	nrgba, opaque, rgba := imgs["NRGBA"].(*image.NRGBA), imgs["RGBA-opaque"].(*image.RGBA), imgs["RGBA"].(*image.RGBA)
	if c := FromImage(nrgba); &c.Pix[0] != &nrgba.Pix[0] || len(c.Pix) != 4*6*4 {
		t.Error("contiguous NRGBA was copied, not adopted")
	}
	if c := FromImage(opaque); &c.Pix[0] != &opaque.Pix[0] {
		t.Error("contiguous opaque RGBA was copied, not adopted")
	}
	if c := FromImage(rgba); &c.Pix[0] == &rgba.Pix[0] {
		t.Error("translucent RGBA is premultiplied and must be converted, not adopted")
	}
}

// TestImageRoundTripTranslucent: Canvas is non-premultiplied, so a
// translucent pixel must survive Image() -> FromImage unchanged (it came
// back premultiplied before the typed path).
func TestImageRoundTripTranslucent(t *testing.T) {
	c := NewCanvas(4, 3)
	c.Fill(c.Bounds(), Color{200, 100, 50, 128})
	c.Set(1, 1, Color{255, 0, 7, 1})
	c.Set(2, 2, Color{9, 250, 33, 254})
	back := FromImage(c.Image())
	if !sameCanvas(back, c) {
		t.Fatalf("translucent round trip: pixel (0,0) %v -> %v, (1,1) %v -> %v",
			c.At(0, 0), back.At(0, 0), c.At(1, 1), back.At(1, 1))
	}
}

func TestFromImageEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromImage of an empty image should panic like NewCanvas")
		}
	}()
	FromImage(image.NewNRGBA(image.Rect(0, 0, 0, 5)))
}

// oldDownsample2x is the per-channel indexed loop the 2:1 box pass
// replaced, kept verbatim as the oracle for every 2:1 kernel.
func oldDownsample2x(c *Canvas) *Canvas {
	w, h := c.W/2, c.H/2
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	out := NewCanvas(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i00 := 4 * ((2*y)*c.W + 2*x)
			i01 := i00 + 4
			i10 := i00 + 4*c.W
			i11 := i10 + 4
			o := 4 * (y*w + x)
			for ch := 0; ch < 4; ch++ {
				sum := uint32(c.Pix[i00+ch]) + uint32(c.Pix[i01+ch]) +
					uint32(c.Pix[i10+ch]) + uint32(c.Pix[i11+ch])
				out.Pix[o+ch] = uint8((sum + 2) / 4)
			}
		}
	}
	return out
}

func oldDownscale(c *Canvas, w, h int) *Canvas {
	for c.W >= 2*w && c.H >= 2*h && c.W%2 == 0 && c.H%2 == 0 {
		c = oldDownsample2x(c)
	}
	if c.W != w || c.H != h {
		c = c.Resize(w, h)
	}
	return c
}

func noiseCanvas(rng *rand.Rand, w, h int) *Canvas {
	c := NewCanvas(w, h)
	for i := range c.Pix {
		c.Pix[i] = uint8(rng.Intn(256))
	}
	return c
}

// TestDownsample2xMatchesOldLoop holds the 2:1 box pass to the oracle, both
// through Downsample2x and as Downscale to half an even size.
func TestDownsample2xMatchesOldLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, sz := range [][2]int{{2, 2}, {8, 6}, {64, 40}, {7, 5}, {9, 4}, {4, 9}, {3, 3}, {384, 640}, {2, 18}, {18, 2}} {
		c := noiseCanvas(rng, sz[0], sz[1])
		want := oldDownsample2x(c)
		if !sameCanvas(c.Downsample2x(), want) {
			t.Errorf("%dx%d: Downsample2x differs from the old loop", sz[0], sz[1])
		}
		if sz[0]%2 == 0 && sz[1]%2 == 0 && !sameCanvas(c.Downscale(sz[0]/2, sz[1]/2), want) {
			t.Errorf("%dx%d: Downscale to half differs from the old loop", sz[0], sz[1])
		}
	}
}

// The old loop read past the buffer on a canvas one pixel wide or high
// (it has no 2x2 block); the rewrite halves the side that can be halved.
func TestDownsample2xThinCanvas(t *testing.T) {
	col := NewCanvas(1, 4)
	col.Set(0, 0, Color{10, 20, 30, 40})
	col.Set(0, 1, Color{13, 21, 30, 255})
	col.Set(0, 2, Color{255, 255, 255, 255})
	col.Set(0, 3, Color{255, 255, 255, 255})
	d := col.Downsample2x()
	if d.W != 1 || d.H != 2 || d.At(0, 0) != (Color{12, 21, 30, 148}) || d.At(0, 1) != White {
		t.Fatalf("1x4 -> %dx%d %v %v", d.W, d.H, d.At(0, 0), d.At(0, 1))
	}
	for _, sz := range [][2]int{{1, 1}, {1, 7}, {6, 1}, {5, 1}} {
		c := NewCanvas(sz[0], sz[1])
		c.Fill(c.Bounds(), Blue)
		d := c.Downsample2x()
		if d.W != max(sz[0]/2, 1) || d.H != max(sz[1]/2, 1) || d.At(0, 0) != Blue {
			t.Errorf("%dx%d -> %dx%d %v", sz[0], sz[1], d.W, d.H, d.At(0, 0))
		}
	}
}

func TestDownscaleMatchesOldLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cases := []struct{ w, h, tw, th int }{
		{384, 640, 96, 160}, {192, 320, 96, 160}, {96, 160, 96, 160}, // the serving sizes
		{64, 64, 16, 16}, {40, 24, 10, 5}, // even, uneven ratios
		{30, 50, 7, 11}, {9, 7, 4, 3}, {12, 20, 3, 5}, // odd somewhere along the way
		{1, 8, 1, 2}, {1, 7, 1, 3}, {8, 1, 4, 1}, {1, 1, 1, 1}, // 1xN
	}
	for _, tc := range cases {
		c := noiseCanvas(rng, tc.w, tc.h)
		if !sameCanvas(c.Downscale(tc.tw, tc.th), oldDownscale(c, tc.tw, tc.th)) {
			t.Errorf("%dx%d -> %dx%d: Downscale differs from the old loop", tc.w, tc.h, tc.tw, tc.th)
		}
	}
}

type namedImage struct {
	name string
	img  image.Image
}

// hiresImages returns the two layouts png.Decode gives a 384x640
// screenshot, each contiguous and as a wider-stride window.
func hiresImages() []namedImage {
	big := image.Rect(0, 0, 384+8, 640)
	win := image.Rect(8, 0, 384+8, 640)
	opaque := func(r image.Rectangle) *image.RGBA {
		m := image.NewRGBA(r)
		for i := range m.Pix {
			m.Pix[i] = 255
		}
		return m
	}
	return []namedImage{
		{"RGBA", opaque(win.Sub(win.Min))},
		{"NRGBA", image.NewNRGBA(win.Sub(win.Min))},
		{"RGBA/rows", opaque(big).SubImage(win)},
		{"NRGBA/rows", image.NewNRGBA(big).SubImage(win)},
	}
}

func TestFromImageAllocs(t *testing.T) {
	for _, tc := range hiresImages() {
		if n := testing.AllocsPerRun(10, func() { FromImage(tc.img) }); n > 2 {
			t.Errorf("%s: FromImage allocates %.0f times per call, want <= 2 (canvas + at most one pixel buffer)", tc.name, n)
		}
	}
}

func TestDownscaleAllocs(t *testing.T) {
	c := NewCanvas(384, 640)
	if n := testing.AllocsPerRun(10, func() { c.Downscale(96, 160) }); n > 3 {
		t.Errorf("Downscale(384x640 -> 96x160) allocates %.0f times, want <= 3 (the canvas, its pixels, one buffer of pending rows)", n)
	}
}

var sinkCanvas *Canvas

func BenchmarkFromImage(b *testing.B) {
	for _, tc := range hiresImages() {
		img := tc.img
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCanvas = FromImage(img)
			}
		})
	}
}

func BenchmarkDownscale(b *testing.B) {
	for _, sz := range [][2]int{{384, 640}, {192, 320}} {
		c := noiseCanvas(rand.New(rand.NewSource(17)), sz[0], sz[1])
		b.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCanvas = c.Downscale(96, 160)
			}
		})
	}
}
