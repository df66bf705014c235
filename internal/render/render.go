// Package render implements the software rasteriser that stands in for the
// Android rendering pipeline. Screens, app windows, synthetic-dataset
// screenshots and DARPA's decoration overlays are all drawn onto a Canvas.
//
// The rasteriser supports exactly what the reproduction needs: solid and
// alpha-blended fills, rounded rectangles (Android buttons), strokes
// (decoration boxes), vertical gradients (ad backgrounds), box blur (the
// text-masking experiment of Table IV), and resampling (model input
// preparation).
package render

import (
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"image/draw"

	"repro/internal/geom"
)

// Color is a non-premultiplied 8-bit RGBA colour.
type Color struct {
	R, G, B, A uint8
}

// RGB returns a fully opaque colour.
func RGB(r, g, b uint8) Color { return Color{r, g, b, 255} }

// WithAlpha returns c with its alpha replaced.
func (c Color) WithAlpha(a uint8) Color { return Color{c.R, c.G, c.B, a} }

// Luma returns the perceptual luminance of c in [0, 255].
func (c Color) Luma() float64 {
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// Common UI colours used across the synthetic apps and the decorator.
var (
	White     = RGB(255, 255, 255)
	Black     = RGB(0, 0, 0)
	Red       = RGB(220, 38, 38)
	Green     = RGB(22, 163, 74)
	Yellow    = RGB(250, 204, 21)
	Orange    = RGB(249, 115, 22)
	Blue      = RGB(37, 99, 235)
	Gray      = RGB(156, 163, 175)
	LightGray = RGB(229, 231, 235)
	DarkGray  = RGB(55, 65, 81)
)

// Canvas is a W x H RGBA pixel buffer. Pixel (x, y) occupies
// Pix[4*(y*W+x) : 4*(y*W+x)+4] in R, G, B, A order, alpha non-premultiplied.
type Canvas struct {
	W, H int
	Pix  []uint8
}

// NewCanvas allocates a transparent-black canvas. Width and height must be
// positive.
func NewCanvas(w, h int) *Canvas {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: invalid canvas size %dx%d", w, h))
	}
	return &Canvas{W: w, H: h, Pix: make([]uint8, 4*w*h)}
}

// Bounds returns the canvas rectangle anchored at the origin.
func (c *Canvas) Bounds() geom.Rect { return geom.Rect{X: 0, Y: 0, W: c.W, H: c.H} }

// Clone returns a deep copy of the canvas.
func (c *Canvas) Clone() *Canvas {
	out := NewCanvas(c.W, c.H)
	copy(out.Pix, c.Pix)
	return out
}

// Zero overwrites every pixel with transparent black, recycling the buffer.
// DARPA's screenshot "rinse" (Section IV-E of the paper) uses this to discard
// captured pixels immediately after inference.
func (c *Canvas) Zero() {
	for i := range c.Pix {
		c.Pix[i] = 0
	}
}

// At returns the colour of pixel (x, y); out-of-bounds reads return the zero
// Color.
func (c *Canvas) At(x, y int) Color {
	if x < 0 || y < 0 || x >= c.W || y >= c.H {
		return Color{}
	}
	i := 4 * (y*c.W + x)
	return Color{c.Pix[i], c.Pix[i+1], c.Pix[i+2], c.Pix[i+3]}
}

// Set overwrites pixel (x, y) ignoring alpha blending; out-of-bounds writes
// are dropped.
func (c *Canvas) Set(x, y int, col Color) {
	if x < 0 || y < 0 || x >= c.W || y >= c.H {
		return
	}
	i := 4 * (y*c.W + x)
	c.Pix[i], c.Pix[i+1], c.Pix[i+2], c.Pix[i+3] = col.R, col.G, col.B, col.A
}

// Blend composites col over pixel (x, y) using source-over with
// non-premultiplied alpha.
func (c *Canvas) Blend(x, y int, col Color) {
	if x < 0 || y < 0 || x >= c.W || y >= c.H || col.A == 0 {
		return
	}
	if col.A == 255 {
		c.Set(x, y, col)
		return
	}
	i := 4 * (y*c.W + x)
	sa := uint32(col.A)
	da := uint32(c.Pix[i+3])
	outA := sa + da*(255-sa)/255
	if outA == 0 {
		c.Pix[i], c.Pix[i+1], c.Pix[i+2], c.Pix[i+3] = 0, 0, 0, 0
		return
	}
	blend := func(s, d uint8) uint8 {
		v := (uint32(s)*sa + uint32(d)*da*(255-sa)/255) / outA
		return uint8(v)
	}
	c.Pix[i] = blend(col.R, c.Pix[i])
	c.Pix[i+1] = blend(col.G, c.Pix[i+1])
	c.Pix[i+2] = blend(col.B, c.Pix[i+2])
	c.Pix[i+3] = uint8(outA)
}

// Fill paints r with col, alpha-blending when col is translucent.
func (c *Canvas) Fill(r geom.Rect, col Color) {
	r = r.Clamp(c.Bounds())
	if r.Empty() {
		return
	}
	if col.A == 255 {
		for y := r.Y; y < r.MaxY(); y++ {
			i := 4 * (y*c.W + r.X)
			for x := 0; x < r.W; x++ {
				c.Pix[i] = col.R
				c.Pix[i+1] = col.G
				c.Pix[i+2] = col.B
				c.Pix[i+3] = 255
				i += 4
			}
		}
		return
	}
	for y := r.Y; y < r.MaxY(); y++ {
		for x := r.X; x < r.MaxX(); x++ {
			c.Blend(x, y, col)
		}
	}
}

// FillRounded paints r with col, rounding corners with radius rad (clamped to
// half the smaller side). Rounded rectangles are the dominant button shape in
// the synthetic AUI dataset, matching real Android material buttons.
func (c *Canvas) FillRounded(r geom.Rect, rad int, col Color) {
	if r.Empty() {
		return
	}
	maxRad := min(r.W, r.H) / 2
	if rad > maxRad {
		rad = maxRad
	}
	if rad <= 0 {
		c.Fill(r, col)
		return
	}
	r2 := rad * rad
	for y := r.Y; y < r.MaxY(); y++ {
		for x := r.X; x < r.MaxX(); x++ {
			dx, dy := 0, 0
			if x < r.X+rad {
				dx = r.X + rad - 1 - x
			} else if x >= r.MaxX()-rad {
				dx = x - (r.MaxX() - rad)
			}
			if y < r.Y+rad {
				dy = r.Y + rad - 1 - y
			} else if y >= r.MaxY()-rad {
				dy = y - (r.MaxY() - rad)
			}
			if dx*dx+dy*dy <= r2 {
				c.Blend(x, y, col)
			}
		}
	}
}

// Stroke draws the outline of r with the given line width, used by the
// decoration views DARPA places around detected AUI options.
func (c *Canvas) Stroke(r geom.Rect, width int, col Color) {
	if r.Empty() || width <= 0 {
		return
	}
	top := geom.Rect{X: r.X, Y: r.Y, W: r.W, H: width}
	bottom := geom.Rect{X: r.X, Y: r.MaxY() - width, W: r.W, H: width}
	left := geom.Rect{X: r.X, Y: r.Y + width, W: width, H: r.H - 2*width}
	right := geom.Rect{X: r.MaxX() - width, Y: r.Y + width, W: width, H: r.H - 2*width}
	c.Fill(top, col)
	c.Fill(bottom, col)
	c.Fill(left, col)
	c.Fill(right, col)
}

// FillCircle paints a filled disc centred at (cx, cy).
func (c *Canvas) FillCircle(cx, cy, rad int, col Color) {
	if rad <= 0 {
		return
	}
	r2 := rad * rad
	for y := cy - rad; y <= cy+rad; y++ {
		for x := cx - rad; x <= cx+rad; x++ {
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= r2 {
				c.Blend(x, y, col)
			}
		}
	}
}

// DrawCross draws an "X" glyph inside r with the given line thickness — the
// archetypal close button of a UPO.
func (c *Canvas) DrawCross(r geom.Rect, thick int, col Color) {
	if r.Empty() {
		return
	}
	if thick < 1 {
		thick = 1
	}
	n := min(r.W, r.H)
	for i := 0; i < n; i++ {
		for t := 0; t < thick; t++ {
			c.Blend(r.X+i, r.Y+i+t, col)
			c.Blend(r.X+i, r.MaxY()-1-i+t, col)
		}
	}
}

// Draw composites src onto c with its top-left corner at (x, y), blending by
// source alpha. Used to composite app windows and overlays into a screen.
func (c *Canvas) Draw(src *Canvas, x, y int) {
	for sy := 0; sy < src.H; sy++ {
		dy := y + sy
		if dy < 0 || dy >= c.H {
			continue
		}
		for sx := 0; sx < src.W; sx++ {
			dx := x + sx
			if dx < 0 || dx >= c.W {
				continue
			}
			i := 4 * (sy*src.W + sx)
			c.Blend(dx, dy, Color{src.Pix[i], src.Pix[i+1], src.Pix[i+2], src.Pix[i+3]})
		}
	}
}

// SubImage returns a copy of the pixels inside r (clamped to the canvas).
func (c *Canvas) SubImage(r geom.Rect) *Canvas {
	r = r.Clamp(c.Bounds())
	if r.Empty() {
		return NewCanvas(1, 1)
	}
	out := NewCanvas(r.W, r.H)
	for y := 0; y < r.H; y++ {
		si := 4 * ((r.Y+y)*c.W + r.X)
		di := 4 * (y * r.W)
		copy(out.Pix[di:di+4*r.W], c.Pix[si:si+4*r.W])
	}
	return out
}

// BoxBlur applies n passes of a 3x3 box blur to the pixels inside r. The
// text-masking experiment (Table IV) blurs button labels with it.
func (c *Canvas) BoxBlur(r geom.Rect, passes int) {
	r = r.Clamp(c.Bounds())
	if r.Empty() || passes <= 0 {
		return
	}
	tmp := make([]uint8, 4*r.W*r.H)
	for p := 0; p < passes; p++ {
		for y := 0; y < r.H; y++ {
			for x := 0; x < r.W; x++ {
				var sr, sg, sb, sa, n uint32
				for dy := -1; dy <= 1; dy++ {
					yy := y + dy
					if yy < 0 || yy >= r.H {
						continue
					}
					for dx := -1; dx <= 1; dx++ {
						xx := x + dx
						if xx < 0 || xx >= r.W {
							continue
						}
						i := 4 * ((r.Y+yy)*c.W + r.X + xx)
						sr += uint32(c.Pix[i])
						sg += uint32(c.Pix[i+1])
						sb += uint32(c.Pix[i+2])
						sa += uint32(c.Pix[i+3])
						n++
					}
				}
				o := 4 * (y*r.W + x)
				tmp[o] = uint8(sr / n)
				tmp[o+1] = uint8(sg / n)
				tmp[o+2] = uint8(sb / n)
				tmp[o+3] = uint8(sa / n)
			}
		}
		for y := 0; y < r.H; y++ {
			di := 4 * ((r.Y+y)*c.W + r.X)
			si := 4 * (y * r.W)
			copy(c.Pix[di:di+4*r.W], tmp[si:si+4*r.W])
		}
	}
}

// Resize returns the canvas resampled to w x h with bilinear interpolation.
// It prepares screenshots for the detector's fixed input resolution.
func (c *Canvas) Resize(w, h int) *Canvas {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("render: invalid resize target %dx%d", w, h))
	}
	out := NewCanvas(w, h)
	xRatio := float64(c.W) / float64(w)
	yRatio := float64(c.H) / float64(h)
	for y := 0; y < h; y++ {
		sy := (float64(y)+0.5)*yRatio - 0.5
		y0 := int(sy)
		if y0 < 0 {
			y0 = 0
		}
		y1 := y0 + 1
		if y1 >= c.H {
			y1 = c.H - 1
		}
		fy := sy - float64(y0)
		if fy < 0 {
			fy = 0
		}
		for x := 0; x < w; x++ {
			sx := (float64(x)+0.5)*xRatio - 0.5
			x0 := int(sx)
			if x0 < 0 {
				x0 = 0
			}
			x1 := x0 + 1
			if x1 >= c.W {
				x1 = c.W - 1
			}
			fx := sx - float64(x0)
			if fx < 0 {
				fx = 0
			}
			di := 4 * (y*w + x)
			for ch := 0; ch < 4; ch++ {
				p00 := float64(c.Pix[4*(y0*c.W+x0)+ch])
				p01 := float64(c.Pix[4*(y0*c.W+x1)+ch])
				p10 := float64(c.Pix[4*(y1*c.W+x0)+ch])
				p11 := float64(c.Pix[4*(y1*c.W+x1)+ch])
				v := p00*(1-fx)*(1-fy) + p01*fx*(1-fy) + p10*(1-fx)*fy + p11*fx*fy
				out.Pix[di+ch] = uint8(v + 0.5)
			}
		}
	}
	return out
}

// Downsample2x returns the canvas reduced by exactly 2:1: Downscale's one box
// pass over its even part. A canvas one pixel wide or high goes through
// Resize. cmd/darpa-bench's tests call it.
func (c *Canvas) Downsample2x() *Canvas {
	w, h := c.W/2, c.H/2
	if w < 1 || h < 1 {
		return c.Resize(max(w, 1), max(h, 1))
	}
	return c.SubImage(geom.Rect{W: 2 * w, H: 2 * h}).Downscale(w, h)
}

// Downscale reduces the canvas to (w, h) with proper area filtering: exact
// 2:1 box-filter passes while the ratio allows, then bilinear for the
// remainder. Plain bilinear at ratios beyond 2:1 skips source pixels
// (aliasing thin UI strokes away); every consumer that feeds the detector
// must use this instead. The passes stream the rows: no canvas between them.
func (c *Canvas) Downscale(w, h int) *Canvas {
	if halves(c.W, c.H, w, h) {
		b := newBoxCascade(c.W, c.H, w, h, 4)
		for y := 0; y < c.H; y++ {
			b.push(0, c.Pix[4*c.W*y:][:4*c.W])
		}
		c = b.dst
	}
	if c.W != w || c.H != h {
		c = c.Resize(w, h)
	}
	return c
}

// halves reports whether Downscale takes a 2:1 pass from sw x sh towards w x h.
func halves(sw, sh, w, h int) bool { return sw >= 2*w && sh >= 2*h && sw%2 == 0 && sh%2 == 0 }

// boxCascade runs Downscale's 2:1 passes, at least one, over a stream of rows,
// RGBA or (bpp 3) opaque RGB. Pass k holds each even row, not a copy, until
// the odd one comes, and averages the two, (sum+2)/4 per channel, into a row
// of half the width for pass k+1; the last pass writes dst.
type boxCascade struct {
	dst    *Canvas
	rows   int           // rows written to dst
	bpp, n int           // n passes
	top    [31][]byte    // each pass's pending row; a side below 1<<31 halves at most 30 times
	out    [31][2][]byte // each pass's output rows, alternated so that the next pass may hold one
}

func newBoxCascade(sw, sh, w, h, bpp int) boxCascade {
	n := 1
	for halves(sw>>n, sh>>n, w, h) {
		n++
	}
	b := boxCascade{dst: NewCanvas(sw>>n, sh>>n), bpp: bpp, n: n}
	var buf []byte // two rows for each pass but the last: 2*4*sw*(1/2 + 1/4 + ...) < 8*sw bytes
	if n > 1 {
		buf = make([]byte, 8*sw)
	}
	for k := 0; k < n-1; k++ {
		rw := 4 * (sw >> (k + 1))
		b.out[k] = [2][]byte{buf[:rw], buf[rw : 2*rw]}
		buf = buf[2*rw:]
	}
	return b
}

// push hands row to pass k.
func (b *boxCascade) push(k int, row []byte) {
	if b.top[k] == nil {
		b.top[k] = row
		return
	}
	out := b.out[k][0]
	b.out[k][0], b.out[k][1] = b.out[k][1], out
	if k == b.n-1 {
		out = b.dst.Pix[4*b.dst.W*b.rows:][:4*b.dst.W]
		b.rows++
	}
	if k == 0 && b.bpp == 3 {
		halveRGB(out, b.top[k], row)
	} else {
		halveRGBA(out, b.top[k], row)
	}
	b.top[k] = nil
	if k < b.n-1 {
		b.push(k+1, out)
	}
}

// halveRGBA writes into dst the 2x2 box average of RGBA rows twice its
// length: (t0 + t1 + b0 + b1 + 2) / 4 per channel, exactly. It reads two
// pixels of a row as one uint64 and makes two output pixels a step: words
// t0 and b0 (the first output's top and bottom pairs) and t1 and b1 (the
// second's; zeros past an odd last pixel). Channels 0 and 2, then 1 and 3,
// are masked into 16-bit lanes, where no sum (at most 4*255+2) carries into
// the next lane, and each word's two pixels are summed by pairing its low
// half with its high half.
func halveRGBA(dst, top, bot []byte) {
	const lanes, lo, round = 0x00ff00ff00ff00ff, 0xffffffff, 0x0002000200020002
	le := binary.LittleEndian
	for len(dst) >= 4 && len(top) >= 8 && len(bot) >= 8 {
		t0, b0, t1, b1 := le.Uint64(top), le.Uint64(bot), uint64(0), uint64(0)
		if len(dst) >= 8 && len(top) >= 16 && len(bot) >= 16 {
			t1, b1 = le.Uint64(top[8:]), le.Uint64(bot[8:])
		}
		rb0, rb1 := t0&lanes+b0&lanes, t1&lanes+b1&lanes
		ga0, ga1 := t0>>8&lanes+b0>>8&lanes, t1>>8&lanes+b1>>8&lanes
		rb := rb0&lo | rb1<<32 + (rb0>>32 | rb1&^lo)
		ga := ga0&lo | ga1<<32 + (ga0>>32 | ga1&^lo)
		v := (rb+round)>>2&lanes | (ga+round)>>2&lanes<<8
		if len(dst) < 8 {
			le.PutUint32(dst, uint32(v))
			return
		}
		le.PutUint64(dst, v)
		dst, top, bot = dst[8:], top[16:], bot[16:]
	}
}

// halveRGB is halveRGBA for RGB rows, whose alpha is 255: (4*255+2)/4. It
// makes four output pixels a step, each from a 6-byte pixel pair of each row
// (halvePair), then one a step; a last pair with no 8 bytes left is read in
// two loads.
func halveRGB(dst, top, bot []byte) {
	le := binary.LittleEndian
	for len(dst) >= 16 && len(top) >= 26 && len(bot) >= 26 {
		p0 := halvePair(le.Uint64(top), le.Uint64(bot))
		p1 := halvePair(le.Uint64(top[6:]), le.Uint64(bot[6:]))
		p2 := halvePair(le.Uint64(top[12:]), le.Uint64(bot[12:]))
		p3 := halvePair(le.Uint64(top[18:]), le.Uint64(bot[18:]))
		le.PutUint64(dst, uint64(p1)<<32|uint64(p0))
		le.PutUint64(dst[8:], uint64(p3)<<32|uint64(p2))
		dst, top, bot = dst[16:], top[24:], bot[24:]
	}
	for len(dst) >= 4 && len(top) >= 6 && len(bot) >= 6 {
		t := uint64(le.Uint32(top)) | uint64(le.Uint16(top[4:]))<<32
		b := uint64(le.Uint32(bot)) | uint64(le.Uint16(bot[4:]))<<32
		le.PutUint32(dst, halvePair(t, b))
		dst, top, bot = dst[4:], top[6:], bot[6:]
	}
}

// halvePair averages the RGB pixel pair in the low 6 bytes of t and of b
// into one opaque RGBA pixel. Bytes 0, 2 and 4 (r0, b0, g1) are masked into
// 16-bit lanes and the rows added, e; so are bytes 1, 3 and 5 (g0, r1, b1),
// each a byte up in its lane, o. o shifted down three bytes puts r1 under r0
// and b1 under b0, and shifted up three puts g0 over g1, leaving red, blue
// and green in lanes 0, 1 and 2.
func halvePair(t, b uint64) uint32 {
	const lo, hi, round = 0x00ff00ff00ff, 0xff00ff00ff00, 0x000200020002
	e, o := t&lo+b&lo, t&hi+b&hi
	v := (e + o>>24 + o<<24 + round) >> 2
	return uint32(v)&0x00ff00ff | uint32(v>>24)&0xff00 | 0xff000000
}

// Image converts the canvas to a standard library image for encoding.
func (c *Canvas) Image() *image.NRGBA {
	img := image.NewNRGBA(image.Rect(0, 0, c.W, c.H))
	copy(img.Pix, c.Pix)
	return img
}

// FromImage builds a canvas from a decoded image, un-premultiplying where
// the source stores premultiplied alpha. The two 8-bit layouts image/png
// returns for screenshots are taken bytewise: *image.NRGBA is already the
// canvas layout, and so is an opaque *image.RGBA. When such an image's rows
// are contiguous the canvas adopts img's Pix instead of copying it — the
// caller hands the image over and must not touch it afterwards (DecodePNG's
// fallback decodes it for this call alone). Rows of a wider
// stride (a SubImage) are copied one by one. Every other image type is
// converted by draw.Draw, except that a paletted image is looked up in its
// converted palette: draw.Draw hands colours over premultiplied, which
// would round a translucent non-premultiplied entry (PLTE + tRNS) that
// converts exactly on its own.
func FromImage(img image.Image) *Canvas {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	switch m := img.(type) {
	case *image.NRGBA:
		return fromPix(m.Pix, m.Stride, w, h)
	case *image.RGBA:
		if m.Opaque() {
			return fromPix(m.Pix, m.Stride, w, h)
		}
	case *image.Paletted:
		lut := make([]Color, len(m.Palette))
		for i, e := range m.Palette {
			lut[i] = Color(color.NRGBAModel.Convert(e).(color.NRGBA))
		}
		c := NewCanvas(w, h)
		for y := 0; y < h; y++ {
			for x, i := range m.Pix[m.Stride*y:][:w] {
				c.Set(x, y, lut[i])
			}
		}
		return c
	}
	c := NewCanvas(w, h)
	dst := &image.NRGBA{Pix: c.Pix, Stride: 4 * w, Rect: image.Rect(0, 0, w, h)}
	draw.Draw(dst, dst.Rect, img, b.Min, draw.Src)
	return c
}

// fromPix wraps pixels already in canvas layout: adopted when the rows are
// contiguous, copied row by row when stride is wider than a row.
func fromPix(pix []uint8, stride, w, h int) *Canvas {
	if stride == 4*w && w > 0 && h > 0 {
		return &Canvas{W: w, H: h, Pix: pix[:4*w*h]}
	}
	c := NewCanvas(w, h)
	for y := 0; y < h; y++ {
		copy(c.Pix[4*w*y:4*w*(y+1)], pix[stride*y:])
	}
	return c
}
