package render

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"hash/crc32"
	"image/png"
	"io"
)

// DecodePNG decodes a PNG screenshot into FromImage(png.Decode(data)).
// Downscale(w, h), bit for bit, and returns it with the screenshot's size.
// 8-bit RGB or RGBA, not interlaced, without tRNS, that Downscale halves
// (what screenshots are) is streamed: rows are inflated and unfiltered one at
// a time into its 2:1 passes, never holding the full-size image. Anything
// else, or input the stream does not verify to the end, goes to png.Decode.
func DecodePNG(data []byte, w, h int) (c *Canvas, sw, sh int, err error) {
	if c, sw, sh, ok := streamPNG(data, w, h); ok {
		return c, sw, sh, nil
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, 0, 0, err
	}
	c = FromImage(img)
	return c.Downscale(w, h), c.W, c.H, nil
}

// streamPNG is DecodePNG's streamed path: ok only for input decoded to the
// end with every CRC and the adler32 verified, which png.Decode accepts too.
func streamPNG(data []byte, w, h int) (c *Canvas, sw, sh int, ok bool) {
	typ, ihdr, off := pngChunk(data, 8)
	if !bytes.HasPrefix(data, []byte("\x89PNG\r\n\x1a\n")) || typ != "IHDR" || len(ihdr) != 13 {
		return
	}
	sw, sh = int(int32(binary.BigEndian.Uint32(ihdr))), int(int32(binary.BigEndian.Uint32(ihdr[4:])))
	bpp := int(ihdr[9])/4 + 3 // bytes per pixel of colour type 2 (RGB) or 6 (RGBA)
	// 8-bit, deflate, adaptive filters, no interlace, within image/png's pixel
	// limit; with no 2:1 pass the full-size image is held anyway.
	if sw <= 0 || sh <= 0 || int64(sw)*int64(sh) > 1<<60 || ihdr[8] != 8 || (ihdr[9] != 2 && ihdr[9] != 6) || ihdr[10]|ihdr[11]|ihdr[12] != 0 || !halves(sw, sh, w, h) {
		return
	}
	// Ancillary chunks may come first, as image/png allows, but not tRNS or PLTE.
	var body []byte
	for typ, body, off = pngChunk(data, off); typ != "IDAT"; typ, body, off = pngChunk(data, off) {
		if typ == "" || typ == "tRNS" || typ[0]&0x20 == 0 {
			return
		}
	}
	z := body[:len(body):len(body)] // the zlib stream, copied only if more IDATs follow
	for typ, body, off = pngChunk(data, off); typ == "IDAT"; typ, body, off = pngChunk(data, off) {
		z = append(z, body...)
	}
	// zlib reads a bytes.Reader bytewise, without read-ahead: what is left, it did not use.
	src := bytes.NewReader(z)
	zr, err := zlib.NewReader(src)
	if typ != "IEND" || len(body) != 0 || err != nil {
		return
	}
	// This row and the one above, filter byte first, with the slack unfilter needs.
	cr, pr := make([]byte, 1+bpp*sw, 8+bpp*sw), make([]byte, 1+bpp*sw, 8+bpp*sw)
	b := newBoxCascade(sw, sh, w, h, bpp)
	for y := 0; y < sh; y++ {
		if _, err := io.ReadFull(zr, cr); err != nil || !unfilter(cr[0], cr[1:], pr[1:], bpp) {
			return
		}
		b.push(0, cr[1:])
		cr, pr = pr, cr
	}
	// The stream ends here, its adler32 verified, with no IDAT byte left.
	if n, err := zr.Read(cr[:1]); n != 0 || err != io.EOF || src.Len() != 0 {
		return
	}
	if c = b.dst; c.W != w || c.H != h {
		c = c.Resize(w, h)
	}
	return c, sw, sh, true
}

// pngChunk returns the type and payload of the chunk at data[off:] and the
// offset past it; the type is empty if the chunk is cut short or fails its CRC.
func pngChunk(data []byte, off int) (typ string, body []byte, next int) {
	if len(data)-off >= 12 {
		end := off + 8 + int(binary.BigEndian.Uint32(data[off:]))
		if end <= len(data)-4 && crc32.ChecksumIEEE(data[off+4:end]) == binary.BigEndian.Uint32(data[end:]) {
			return string(data[off+4 : off+8]), data[off+8 : end], end + 4
		}
	}
	return "", nil, off
}

// unfilter reverses filter type ft on the row cur, given the unfiltered row
// above it (zeros for the first) and bpp bytes per pixel; both rows have at
// least 7 bytes of capacity past their length. It reports false for an
// unknown filter type.
func unfilter(ft byte, cur, prev []byte, bpp int) bool {
	switch ft {
	case 2: // Up, eight bytes at a time: add the low seven bits of each byte, then set the top bit
		const hi = 0x8080808080808080
		for i := 0; i < len(cur); i += 8 {
			a, b := binary.LittleEndian.Uint64(cur[i:][:8]), binary.LittleEndian.Uint64(prev[i:][:8])
			binary.LittleEndian.PutUint64(cur[i:][:8], ((a&^hi)+(b&^hi))^((a^b)&hi))
		}
	case 1, 3, 4: // Sub, Average, Paeth
		for i := range cur {
			a, b, c := 0, int(prev[i]), 0 // left, up, up-left
			if i >= bpp {
				a, c = int(cur[i-bpp]), int(prev[i-bpp])
			}
			if pa, pb, pc := max(b-c, c-b), max(a-c, c-a), max(a+b-2*c, 2*c-a-b); ft == 3 {
				a = (a + b) / 2
			} else if ft == 4 && (pa > pb || pa > pc) {
				a = c
				if pb <= pc {
					a = b
				}
			}
			cur[i] += uint8(a)
		}
	default:
		return ft == 0 // None
	}
	return true
}
