package render

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"image/png"
	"io"
)

// DecodePNG decodes a PNG screenshot into FromImage(png.Decode(data)).
// Downscale(w, h), bit for bit, and returns it with the screenshot's size.
// 8-bit RGB or RGBA, not interlaced, without tRNS, that Downscale halves
// (what screenshots are) is streamed by streamPNG, never holding the
// full-size image. Anything else, or input the stream does not verify to the
// end, goes to png.Decode, whose errors are then DecodePNG's.
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

// streamPNG is DecodePNG's streamed path, which owns the zlib framing as
// well as the PNG chunks. It checks the zlib header as compress/zlib does,
// inflates the rows with compress/flate one at a time, adds each to the
// stream's checksum (adler32), unfilters it (unfilter) and pushes it into
// Downscale's 2:1 passes (boxCascade). It reports ok only for input decoded to the end,
// with every CRC, the zlib header and the adler32 trailer verified and no
// byte left over: input png.Decode accepts too.
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
	// The zlib header, checked as compress/zlib checks it: deflate (CM 8), a
	// window of at most 32 KiB (CINFO 7), FCHECK, and no preset dictionary.
	if typ != "IEND" || len(body) != 0 || len(z) < 2 || z[0]&0x0f != 8 || z[0]>>4 > 7 ||
		binary.BigEndian.Uint16(z)%31 != 0 || z[1]&0x20 != 0 {
		return
	}
	// flate reads a bytes.Reader bytewise, without read-ahead: what is left, it did not use.
	src := bytes.NewReader(z[2:])
	zr := flate.NewReader(src)
	// This row and the one above, filter byte first, with the slack unfilter needs.
	cr, pr := make([]byte, 1+bpp*sw, 1+bpp*sw+rowSlack), make([]byte, 1+bpp*sw, 1+bpp*sw+rowSlack)
	b := newBoxCascade(sw, sh, w, h, bpp)
	sum := uint32(1) // the adler32 of the rows so far, filter bytes included
	for y := 0; y < sh; y++ {
		if _, err := io.ReadFull(zr, cr); err != nil {
			return
		}
		if sum = adler32(sum, cr); !unfilter(cr[0], cr[1:], pr[1:], bpp) {
			return
		}
		b.push(0, cr[1:])
		cr, pr = pr, cr
	}
	// The deflate stream ends here, and what is left of the IDAT bytes is
	// exactly its adler32.
	if n, err := zr.Read(cr[:1]); n != 0 || err != io.EOF || src.Len() != 4 || binary.BigEndian.Uint32(z[len(z)-4:]) != sum {
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

// rowSlack is the capacity unfilter needs past the end of each row.
const rowSlack = 15

// unfilter reverses filter type ft on the row cur, given the unfiltered row
// above it (zeros for the first) and bpp, 3 or 4, bytes per pixel, with
// unfilterRow. It reports false for an unknown filter type. Both rows need
// rowSlack bytes of capacity past len(cur): the kernels read up to 16 bytes
// at a time, and write back unchanged what they read past cur's end.
func unfilter(ft byte, cur, prev []byte, bpp int) bool {
	_, _ = cur[:len(cur)+rowSlack], prev[:len(cur)+rowSlack]
	if ft > 4 {
		return false
	}
	if ft != 0 { // 0 is None
		unfilterRow(ft, cur, prev, bpp)
	}
	return true
}

// unfilterGo is unfilterRow in Go, for filter types 1 to 4: what runs off
// amd64, and the kernels' oracle.
func unfilterGo(ft byte, cur, prev []byte, bpp int) {
	if ft == 2 { // Up, eight bytes at a time: add the low seven bits of each byte, then set the top bit
		const hi = 0x8080808080808080
		i := 0
		for ; i+8 <= len(cur); i += 8 {
			a, b := binary.LittleEndian.Uint64(cur[i:]), binary.LittleEndian.Uint64(prev[i:])
			binary.LittleEndian.PutUint64(cur[i:], ((a&^hi)+(b&^hi))^((a^b)&hi))
		}
		for ; i < len(cur); i++ {
			cur[i] += prev[i]
		}
		return
	}
	for i := range cur { // Sub, Average, Paeth
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
}

// adler32 returns the checksum a (1 to start) updated with p, as
// hash/adler32 computes it: s1, 1 plus the bytes, and s2, the sum of s1
// after each byte, both mod 65521 and reduced every 5552 bytes, the most
// after which s2 still fits in 32 bits. Whole adlerBlock-byte steps go to
// adler32Blocks, the rest byte by byte.
func adler32(a uint32, p []byte) uint32 {
	const mod, nmax = 65521, 5552
	s1, s2 := a&0xffff, a>>16
	for len(p) > 0 {
		q := p[:min(len(p), nmax)]
		p = p[len(q):]
		if n := len(q) &^ (adlerBlock - 1); n > 0 {
			sum, wsum, psum := adler32Blocks(q[:n])
			s2 += uint32(n)*s1 + adlerBlock*psum + wsum
			s1 += sum
			q = q[n:]
		}
		for _, x := range q {
			s1 += uint32(x)
			s2 += s1
		}
		s1, s2 = s1%mod, s2%mod
	}
	return s2<<16 | s1
}
