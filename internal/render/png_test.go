package render

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	stdadler32 "hash/adler32"
	"hash/crc32"
	"image"
	"image/png"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// DecodePNG is held to the path it replaces in the server: png.Decode, the
// per-pixel conversion FromImage is pinned to, and the old Downscale loop.

type pngChunkT struct {
	typ  string
	data []byte
}

// pngChunks splits an encoded PNG into its chunks (CRCs dropped).
func pngChunks(t testing.TB, b []byte) []pngChunkT {
	t.Helper()
	var out []pngChunkT
	for off := 8; off < len(b); {
		n := int(binary.BigEndian.Uint32(b[off:]))
		out = append(out, pngChunkT{string(b[off+4 : off+8]), b[off+8 : off+8+n]})
		off += 12 + n
	}
	return out
}

// pngFile writes chunks as a PNG file, each with its CRC.
func pngFile(chunks ...pngChunkT) []byte {
	var buf bytes.Buffer
	buf.WriteString("\x89PNG\r\n\x1a\n")
	for _, c := range chunks {
		binary.Write(&buf, binary.BigEndian, uint32(len(c.data)))
		body := append([]byte(c.typ), c.data...)
		buf.Write(body)
		binary.Write(&buf, binary.BigEndian, crc32.ChecksumIEEE(body))
	}
	return buf.Bytes()
}

// idatStream returns the concatenated IDAT payloads: the zlib stream.
func idatStream(t testing.TB, b []byte) []byte {
	var z []byte
	for _, c := range pngChunks(t, b) {
		if c.typ == "IDAT" {
			z = append(z, c.data...)
		}
	}
	return z
}

// withIDAT rebuilds b with its zlib stream replaced by z, cut into IDAT
// chunks of the given sizes (the last taking the rest).
func withIDAT(t testing.TB, b, z []byte, sizes ...int) []byte {
	var out []pngChunkT
	for _, c := range pngChunks(t, b) {
		switch c.typ {
		case "IDAT":
		case "IEND":
			for _, n := range sizes {
				n = min(n, len(z))
				out = append(out, pngChunkT{"IDAT", z[:n]})
				z = z[n:]
			}
			out = append(out, pngChunkT{"IDAT", z}, c)
		default:
			out = append(out, c)
		}
	}
	return pngFile(out...)
}

func encodePNG(t testing.TB, img image.Image, level png.CompressionLevel) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (&png.Encoder{CompressionLevel: level}).Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refDecode is what DecodePNG must return: png.Decode, then the per-pixel
// conversion and the old 2:1 loop.
func refDecode(b []byte, w, h int) (*Canvas, int, int, error) {
	img, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		return nil, 0, 0, err
	}
	c := refFromImage(img)
	return oldDownscale(c, w, h), c.W, c.H, nil
}

// checkDecodePNG fails unless DecodePNG and refDecode both fail or return
// the same canvas and size, and reports whether the stream decoded b.
func checkDecodePNG(t *testing.T, name string, b []byte) (streamed bool) {
	t.Helper()
	return checkDecodePNGAt(t, name, b, 96, 160)
}

// checkDecodePNGAt is checkDecodePNG at a w x h output.
func checkDecodePNGAt(t *testing.T, name string, b []byte, w, h int) (streamed bool) {
	t.Helper()
	want, ww, wh, werr := refDecode(b, w, h)
	return checkAgainst(t, name, b, w, h, want, ww, wh, werr)
}

// checkAgainst decodes b into a w x h canvas whose every byte is first set
// to 0xa5, so a pixel DecodePNG leaves unwritten shows.
func checkAgainst(t *testing.T, name string, b []byte, w, h int, want *Canvas, ww, wh int, werr error) (streamed bool) {
	t.Helper()
	got := dirtyCanvas(w, h)
	gw, gh, gerr := DecodePNG(b, got)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: DecodePNG error %v, png.Decode error %v", name, gerr, werr)
	}
	if gerr == nil && (gw != ww || gh != wh || !sameCanvas(got, want)) {
		t.Fatalf("%s: DecodePNG gave %dx%d from %dx%d, the stdlib path %dx%d from %dx%d",
			name, got.W, got.H, gw, gh, want.W, want.H, ww, wh)
	}
	_, _, streamed = streamPNG(b, dirtyCanvas(w, h))
	return streamed
}

// dirtyCanvas returns a w x h canvas with every byte 0xa5.
func dirtyCanvas(w, h int) *Canvas {
	c := NewCanvas(w, h)
	for i := range c.Pix {
		c.Pix[i] = 0xa5
	}
	return c
}

// rowFilters tallies the filter types of b's rows, by bytes per pixel
// (index 0 for RGB, 1 for RGBA).
func rowFilters(t testing.TB, b []byte, seen *[2][5]int) {
	cfg, err := png.DecodeConfig(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zlib.NewReader(bytes.NewReader(idatStream(t, b)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	rowLen := len(raw) / cfg.Height
	for y := 0; y < cfg.Height; y++ {
		seen[b[25]/4][raw[y*rowLen]]++ // IHDR's colour type: 2 (RGB) or 6 (RGBA)
	}
}

func TestDecodePNGMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	levels := []png.CompressionLevel{png.BestSpeed, png.DefaultCompression, png.NoCompression}
	sizes := [][2]int{{1, 1}, {33, 31}, {96, 160}, {192, 320}, {384, 640}, {200, 322}, {1080, 1920}}
	var filters [2][5]int
	for _, sz := range sizes {
		for name, img := range pngImageTypes(rng, sz[0], sz[1]) {
			// image/png writes these three as 8-bit RGB(A), which DecodePNG
			// streams at the output's own size or when Downscale has a 2:1
			// pass to take.
			streams := (name == "RGBA" || name == "RGBA-opaque" || name == "NRGBA") && (sz == [2]int{96, 160} || halves(sz[0], sz[1], 96, 160))
			if testing.Short() && sz[0] >= 384 && !streams {
				continue // the stdlib path at screen sizes takes a minute under -race
			}
			var want *Canvas
			var ww, wh int
			var werr error
			for _, level := range levels {
				if testing.Short() && sz[0] == 1080 && level != png.NoCompression {
					continue // filtering 1080x1920 takes seconds, longer under -race
				}
				// PNG is lossless: every level decodes to the same image.
				b := encodePNG(t, img, level)
				if want == nil {
					want, ww, wh, werr = refDecode(b, 96, 160)
				}
				streamed := checkAgainst(t, fmt.Sprintf("%s %dx%d level %d", name, sz[0], sz[1], level), b, 96, 160, want, ww, wh, werr)
				if streamed != streams {
					t.Errorf("%s %dx%d level %d: streamed %v, want %v", name, sz[0], sz[1], level, streamed, streams)
				}
				if streamed {
					rowFilters(t, b, &filters)
				}
			}
		}
	}

	// The serving corpus's screens, posted at 384x640 as serve-hires posts
	// them: every one streams.
	if HiresScreens == nil {
		t.Fatal("HiresScreens is not set")
	}
	for i, b := range HiresScreens(t) {
		if !checkDecodePNG(t, fmt.Sprintf("generator screen %d", i), b) {
			t.Errorf("generator screen %d was not streamed", i)
		}
		rowFilters(t, b, &filters)
	}
	for bpp, seen := range filters {
		for ft, n := range seen {
			if n == 0 {
				t.Errorf("no streamed %d-byte row used filter type %d: %v", bpp+3, ft, filters)
			}
		}
	}

	// A screen-like 384x640 RGB file whose zlib stream is cut mid-row into
	// IDAT chunks of 1, 7 and 1000 bytes, and a translucent RGBA one.
	screen := screenCanvas(384, 640)
	b := encodePNG(t, screen.Image(), png.BestSpeed)
	if split := withIDAT(t, b, idatStream(t, b), 1, 7, 1000); !checkDecodePNG(t, "split IDAT", split) {
		t.Error("a file with IDAT split mid-row was not streamed")
	}
	screen.Fill(geom.Rect{X: 40, Y: 100, W: 300, H: 200}, Color{20, 30, 200, 77})
	if !checkDecodePNG(t, "translucent", encodePNG(t, screen.Image(), png.BestSpeed)) {
		t.Error("a translucent RGBA screen was not streamed")
	}
}

// HiresScreens returns the generator's screens pixel-doubled to 384x640 and
// encoded at BestSpeed, as BenchmarkReadScreen posts them. The external test
// package sets it: the generator imports render.
var HiresScreens func(testing.TB) [][]byte

// screenCanvas draws a UI-like w x h screen: flat fills, a gradient, rounded
// buttons and strokes, the content the serving corpus is made of.
func screenCanvas(w, h int) *Canvas {
	c := NewCanvas(w, h)
	c.Fill(c.Bounds(), White)
	for y := 0; y < h/4; y++ { // a vertical gradient, one shade per row
		v := uint8(255 * y / (h / 4))
		c.Fill(geom.Rect{Y: y, W: w, H: 1}, RGB(v/2, v, 255-v/3))
	}
	for i := 0; i < 4; i++ {
		r := geom.Rect{X: w / 8, Y: h/3 + i*h/8, W: 3 * w / 4, H: h / 12}
		c.FillRounded(r, 6, []Color{Red, Green, Orange, DarkGray}[i])
		c.Stroke(r, 1, Black)
	}
	c.DrawCross(geom.Rect{X: w - 24, Y: 8, W: 12, H: 12}, 2, Gray)
	return c
}

// brokenPNGs derives from a valid screen file each way a file can be wrong
// near the streamed path, named.
func brokenPNGs(t testing.TB) map[string][]byte {
	b := encodePNG(t, screenCanvas(192, 320).Image(), png.BestSpeed)
	z := idatStream(t, b)
	zr, err := zlib.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	deflate := func(raw []byte) []byte {
		var buf bytes.Buffer
		zw := zlib.NewWriter(&buf)
		zw.Write(raw)
		zw.Close()
		return buf.Bytes()
	}
	chunks := pngChunks(t, b)
	badCRC := bytes.Clone(b)
	badCRC[len(badCRC)-13] ^= 1 // the last IDAT's CRC
	badAdler := bytes.Clone(z)
	badAdler[len(badAdler)-1] ^= 1
	// z with a new zlib header: cmf, and flg with FCHECK made right.
	header := func(cmf, flg byte) []byte {
		z := bytes.Clone(z)
		z[0], z[1] = cmf, flg&^0x1f
		z[1] += byte(31-binary.BigEndian.Uint16(z)%31) % 31
		return withIDAT(t, b, z)
	}
	badFCHECK := bytes.Clone(z)
	badFCHECK[1] ^= 1
	ihdr := bytes.Clone(chunks[0].data)
	binary.BigEndian.PutUint32(ihdr, 30000)
	binary.BigEndian.PutUint32(ihdr[4:], 30000)
	return map[string][]byte{
		"valid":        b,
		"truncated":    b[:len(b)/2],
		"bad CRC":      badCRC,
		"bad adler32":  withIDAT(t, b, badAdler),
		"extra row":    withIDAT(t, b, deflate(append(raw, raw[:len(raw)/320]...))),
		"short a row":  withIDAT(t, b, deflate(raw[:len(raw)-len(raw)/320])),
		"bad filter":   withIDAT(t, b, deflate(append([]byte{5}, raw[1:]...))),
		"junk after z": withIDAT(t, b, append(bytes.Clone(z), 0, 0, 0)),
		"missing IEND": b[:len(b)-12],
		"tRNS after IDAT": pngFile(append(chunks[:len(chunks)-1:len(chunks)-1],
			pngChunkT{"tRNS", make([]byte, 6)}, chunks[len(chunks)-1])...),
		"tRNS before IDAT": pngFile(append([]pngChunkT{chunks[0], {"tRNS", make([]byte, 6)}}, chunks[1:]...)...),
		"ancillary chunk":  pngFile(append([]pngChunkT{chunks[0], {"tIME", make([]byte, 7)}}, chunks[1:]...)...),
		"30000x30000":      pngFile(pngChunkT{"IHDR", ihdr}, pngChunkT{"IDAT", deflate(make([]byte, 64))}, pngChunkT{"IEND", nil}),
		"FDICT":            header(z[0], z[1]|0x20),
		"bad FCHECK":       withIDAT(t, b, badFCHECK),
		"CM 7":             header(z[0]&0xf0|7, z[1]),
		"CINFO 8":          header(0x88, z[1]),
		"adler32 cut to 0": withIDAT(t, b, z[:len(z)-4]),
		"adler32 cut to 1": withIDAT(t, b, z[:len(z)-3]),
		"adler32 cut to 2": withIDAT(t, b, z[:len(z)-2]),
		"adler32 cut to 3": withIDAT(t, b, z[:len(z)-1]),
	}
}

func TestDecodePNGErrorsMatchStdlib(t *testing.T) {
	for name, b := range brokenPNGs(t) {
		if name == "30000x30000" {
			continue // png.Decode would allocate 3.6 GB; the fuzz seed covers it under a header check
		}
		streamed := checkDecodePNG(t, name, b)
		if want := name == "valid" || name == "ancillary chunk"; streamed != want {
			t.Errorf("%s: streamed %v, want %v", name, streamed, want)
		}
	}
}

// smallPNGs hand-builds 6x4 files, named: RGB and RGBA, each with every row
// under one filter type, 0 to 4, over random bytes, and each both deflated in
// one IDAT chunk and stored, not deflated, across several. At half their
// size they stream, so each reaches the kernels in a few hundred bytes.
func smallPNGs(t testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(50))
	zlibAt := func(raw []byte, level int) []byte {
		var z bytes.Buffer
		zw, _ := zlib.NewWriterLevel(&z, level)
		zw.Write(raw)
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return z.Bytes()
	}
	const w, h = 6, 4
	out := map[string][]byte{}
	for _, ct := range []byte{2, 6} {
		bpp := int(ct)/4 + 3
		ihdr := make([]byte, 13)
		binary.BigEndian.PutUint32(ihdr, w)
		binary.BigEndian.PutUint32(ihdr[4:], h)
		ihdr[8], ihdr[9] = 8, ct
		for ft := byte(0); ft <= 4; ft++ {
			raw := make([]byte, h*(1+bpp*w))
			rng.Read(raw)
			for y := 0; y < h; y++ {
				raw[y*(1+bpp*w)] = ft
			}
			b := pngFile(pngChunkT{"IHDR", ihdr}, pngChunkT{"IDAT", zlibAt(raw, zlib.BestSpeed)}, pngChunkT{"IEND", nil})
			name := fmt.Sprintf("%d bytes a pixel, filter %d", bpp, ft)
			out[name] = b
			out[name+", stored"] = withIDAT(t, b, zlibAt(raw, zlib.NoCompression), 3, 40)
		}
	}
	return out
}

// TestSmallPNGsStream: the fuzz target's small seeds match the stdlib path,
// and stream, at half their size and at their own.
func TestSmallPNGsStream(t *testing.T) {
	for name, b := range smallPNGs(t) {
		if !checkDecodePNGAt(t, name, b, 3, 2) {
			t.Errorf("%s: not streamed at 3x2", name)
		}
		if !checkDecodePNGAt(t, name, b, 6, 4) {
			t.Errorf("%s: not streamed at 6x4", name)
		}
	}
}

// FuzzDecodePNG: for any bytes whose header passes the server's pixel
// check, DecodePNG and the stdlib path both fail, or both succeed with the
// same pixels and size, at the server's 96x160 and at the file's own size
// and half of it, where a file of a few rows streams too.
func FuzzDecodePNG(f *testing.F) {
	for _, b := range brokenPNGs(f) {
		f.Add(b)
	}
	for _, b := range smallPNGs(f) {
		f.Add(b)
	}
	f.Add(encodePNG(f, screenCanvas(384, 640).Image(), png.BestSpeed))
	lowres := screenCanvas(96, 160)
	f.Add(encodePNG(f, lowres.Image(), png.BestSpeed)) // RGB
	lowres.Fill(geom.Rect{X: 10, Y: 30, W: 70, H: 50}, Color{20, 30, 200, 77})
	f.Add(encodePNG(f, lowres.Image(), png.BestSpeed)) // RGBA
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg, err := png.DecodeConfig(bytes.NewReader(b))
		if err == nil && cfg.Width*cfg.Height > 1<<18 {
			return
		}
		checkDecodePNG(t, "fuzz input", b)
		if err == nil && cfg.Width >= 1 && cfg.Height >= 1 {
			checkDecodePNGAt(t, "fuzz input at its own size", b, cfg.Width, cfg.Height)
		}
		if err == nil && cfg.Width >= 2 && cfg.Height >= 2 {
			checkDecodePNGAt(t, "fuzz input at half size", b, cfg.Width/2, cfg.Height/2)
		}
	})
}

// TestUnfilterMatchesGo pins unfilter's kernels to the Go loops, unfilterGo,
// for every filter type at 3 and 4 bytes per pixel, rows of 1 to 70 bytes
// and a 384-pixel RGB row's 1152, each row random, all 0 or all 255, between
// 16 guard bytes on either side that must not change.
func TestUnfilterMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	const guard = 16
	fills := []func() byte{
		func() byte { return byte(rng.Intn(256)) },
		func() byte { return 0 },
		func() byte { return 255 },
	}
	// row returns n bytes of fill between random guards, and a copy.
	row := func(n int, fill func() byte) (buf, orig []byte) {
		buf = make([]byte, guard+n+guard)
		rng.Read(buf)
		for i := range n {
			buf[guard+i] = fill()
		}
		return buf, bytes.Clone(buf)
	}
	lengths := []int{1152}
	for n := 1; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for bpp := 3; bpp <= 4; bpp++ {
		for ft := byte(0); ft <= 4; ft++ {
			for _, n := range lengths {
				for fc, cfill := range fills {
					for fp, pfill := range fills {
						cur, orig := row(n, cfill)
						prev, prevOrig := row(n, pfill)
						want := bytes.Clone(orig[guard : guard+n])
						if ft != 0 {
							unfilterGo(ft, want, prev[guard:guard+n], bpp)
						}
						if !unfilter(ft, cur[guard:guard+n], prev[guard:guard+n], bpp) {
							t.Fatalf("filter %d refused", ft)
						}
						if !bytes.Equal(cur[guard:guard+n], want) {
							t.Fatalf("filter %d, bpp %d, %d bytes, fills %d/%d: unfilter gave\n%v\nunfilterGo\n%v", ft, bpp, n, fc, fp, cur[guard:guard+n], want)
						}
						if !bytes.Equal(cur[:guard], orig[:guard]) || !bytes.Equal(cur[guard+n:], orig[guard+n:]) || !bytes.Equal(prev, prevOrig) {
							t.Fatalf("filter %d, bpp %d, %d bytes: a byte outside the row changed", ft, bpp, n)
						}
					}
				}
			}
		}
	}
	if cur := make([]byte, 3, 3+rowSlack); unfilter(5, cur, cur, 3) {
		t.Error("filter type 5 was accepted")
	}
}

// TestAdler32MatchesStdlib pins adler32 to hash/adler32: over every length
// from 0 to 20 000 bytes (past the 5552-byte reduction bound three times),
// of random bytes and of all 0xff (the largest sums, where an overflow
// would show), and over the same bytes fed in random row-sized chunks.
func TestAdler32MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(65521))
	random, ones := make([]byte, 20000), bytes.Repeat([]byte{0xff}, 20000)
	rng.Read(random)
	for n := 0; n <= len(random); n++ {
		for _, p := range [][]byte{random[:n], ones[:n]} {
			if got, want := adler32(1, p), stdadler32.Checksum(p); got != want {
				t.Fatalf("%d bytes from %d: adler32 %#x, hash/adler32 %#x", n, p[0:min(n, 1)], got, want)
			}
		}
	}
	for range 20 {
		for _, p := range [][]byte{random, ones} {
			sum, q := uint32(1), p
			for len(q) > 0 {
				n := min(len(q), 1+rng.Intn(1600))
				sum, q = adler32(sum, q[:n]), q[n:]
			}
			if want := stdadler32.Checksum(p); sum != want {
				t.Fatalf("in chunks: adler32 %#x, hash/adler32 %#x", sum, want)
			}
		}
	}
}

// allocated returns the bytes f allocates, averaged over runs calls.
func allocated(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// flatPNG hand-builds a w x h RGB file of one colour, every row after the
// first filtered Up, without holding the image.
func flatPNG(t testing.TB, w, h int) []byte {
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr, uint32(w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(h))
	ihdr[8], ihdr[9] = 8, 2
	var z bytes.Buffer
	zw, _ := zlib.NewWriterLevel(&z, zlib.BestSpeed)
	row := make([]byte, 1+3*w)
	row[0], row[1], row[2], row[3] = 1, 40, 90, 200 // Sub: the first pixel, then zero deltas
	zw.Write(row)
	up := make([]byte, 1+3*w)
	up[0] = 2
	for y := 1; y < h; y++ {
		zw.Write(up)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return pngFile(pngChunkT{"IHDR", ihdr}, pngChunkT{"IDAT", z.Bytes()}, pngChunkT{"IEND", nil})
}

// TestDecodePNGAllocs: what a request allocates no longer grows with the
// screen. A 384x640 screen (a 983 040-byte image to png.Decode) takes under
// a quarter of that, and a 96x160 one, streamed into its canvas, under the
// 61 440 bytes of its image (a few hundred without the race detector, whose
// sync.Pool drops a quarter of its Puts: the mean of 50 calls stays far
// below); a flat 4096x4096 one, the server's pixel cap, under 1 MiB beyond
// its 96x160 output (png.Decode allocates 64 MiB for it).
func TestDecodePNGAllocs(t *testing.T) {
	dst := NewCanvas(96, 160)
	for _, c := range []struct{ w, h, max int }{{384, 640, 384 * 640}, {96, 160, 4 * 96 * 160}} {
		b := encodePNG(t, screenCanvas(c.w, c.h).Image(), png.BestSpeed)
		if n := allocated(50, func() { DecodePNG(b, dst) }); n >= uint64(c.max) {
			t.Errorf("DecodePNG(%dx%d) allocates %d bytes per call, want < %d", c.w, c.h, n, c.max)
		}
	}
	if testing.Short() {
		return // inflating 48 MiB of rows takes seconds under -race; the alloc gate runs it without -short
	}
	flat := flatPNG(t, 4096, 4096)
	c := NewCanvas(96, 160)
	var err error
	if n := allocated(1, func() { _, _, err = DecodePNG(flat, c) }); n > 4*96*160+1<<20 {
		t.Errorf("DecodePNG(4096x4096) allocates %d bytes per call, want <= %d", n, 4*96*160+1<<20)
	}
	if err != nil || c.At(50, 50) != (Color{40, 90, 200, 255}) {
		t.Fatalf("flat 4096x4096: %v, pixel %v", err, c.At(50, 50))
	}
}

// TestDecodePNGReuse: nothing of one decode reaches the next, through the
// canvas or the pooled inflater and rows. At the model's 96x160 (streamed
// 1:1) and from 192x320 (one 2:1 pass), screen B decoded into a canvas that
// last held screen A, and right after a stream of A that failed at a cut
// adler32 trailer or a bad one, equals B decoded into a fresh canvas. A and
// B differ in every row and in colour type: one is RGB, the other RGBA.
func TestDecodePNGReuse(t *testing.T) {
	for _, sz := range [][2]int{{96, 160}, {192, 320}} {
		a := screenCanvas(sz[0], sz[1])
		b := screenCanvas(sz[0], sz[1])
		b.Fill(b.Bounds(), Color{200, 20, 90, 130})
		screens := [2][]byte{encodePNG(t, a.Image(), png.BestSpeed), encodePNG(t, b.Image(), png.BestSpeed)}
		for i, prev := range screens {
			next := screens[1-i]
			want := NewCanvas(96, 160)
			if _, _, err := DecodePNG(next, want); err != nil {
				t.Fatal(err)
			}
			z := idatStream(t, prev)
			badAdler := bytes.Clone(z)
			badAdler[len(badAdler)-1] ^= 1
			between := map[string][]byte{
				"nothing":       nil,
				"a cut trailer": withIDAT(t, prev, z[:len(z)-2]),
				"a bad adler32": withIDAT(t, prev, badAdler),
			}
			for name, broken := range between {
				c := NewCanvas(96, 160)
				if _, _, err := DecodePNG(prev, c); err != nil {
					t.Fatal(err)
				}
				if _, _, err := DecodePNG(broken, c); broken != nil && err == nil {
					t.Fatalf("%dx%d: %s decoded", sz[0], sz[1], name)
				}
				if _, _, err := DecodePNG(next, c); err != nil || !sameCanvas(c, want) {
					t.Errorf("%dx%d, screen %d after %d, %s between: %v, or pixels differ from a fresh decode", sz[0], sz[1], 1-i, i, name, err)
				}
			}
		}
	}
}
