package tensor

import (
	"math"
	"math/bits"
)

// im2col lowers convolution to matrix multiplication: the window under each
// output pixel becomes one column of a dense [kdim x pixels] panel that the
// weights [OutC x kdim] multiply (gemm.go), out-of-bounds taps written as
// explicit zeros so the GEMM inner loop has no bounds branches. Panels are
// built per column block, so scratch stays small and cache-resident.
//
// Only distinct columns are unpacked. A UI screen is mostly flat, so most
// pixels of a block see a receptive field bit-identical to one another pixel
// already has: DistinctPanel unpacks each window once, the GEMM multiplies
// those columns alone, and SpreadCols copies each result to every pixel
// sharing it. This is exact because an output column is a pure function of
// its panel column: the float kernel keeps one accumulator per output,
// starts it at the bias and adds taps in ascending k whatever register tile
// the column lands in (TestConvGemmMatchesDirect pins every tile against the
// direct loop), int8 accumulates in int32, which is exact, and both
// epilogues are elementwise. Equality is decided tap by tap against the
// input, an out-of-bounds tap reading as the panel's zero, float32 by bits:
// -0 and +0 differ, NaNs match only with the same payload. Fingerprints only
// nominate candidates.
//
// The search reads the input, not the panel. Equal windows have equal centre
// taps, so a pixel whose centre position's fingerprint (h = (h ^ tap) * fpMul
// over the channels; outside the input, the zero vector's) no other pixel of
// the block shares is new: on data with no repeats that pass is the whole
// cost. Otherwise every position the block touches is fingerprinted, a
// candidate's window fingerprint xors its kk*kk position fingerprints, tap t
// rotated 7t bits, and an open-addressing table finds the first pixel with
// the same window.

// colScalar is the element type an im2col panel can hold: float32 for the
// float kernels, int8 for the quantised path (internal/quant).
type colScalar interface {
	~float32 | ~int8
}

var fpScratch Scratch[uint64] // position fingerprints, window table
var idxScratch Scratch[int32] // first pixels, tap offsets, rep maps

// fpMul is an odd 64-bit multiplier, 2^64 divided by the golden ratio.
const fpMul = 0x9E3779B97F4A7C15

// DistinctPanel unpacks the panel for output pixels [j0, j1) of one CHW item:
// row (ic*kk+kh)*kk+kw holds tap (ic, kh, kw) of the window at (oh*stride-pad,
// ow*stride-pad), j = oh*OW+ow. It writes the u distinct columns, first
// appearances in order, to dst as [kdim x u], sets rep[j-j0] to pixel j's
// column (so rep[i] <= i) and returns u. dst must hold kdim*(j1-j0) values.
func DistinctPanel[T colScalar](src []T, C, H, W, kk, stride, pad, OW, j0, j1 int, dst []T, rep []int32) int {
	nc, kdim := j1-j0, C*kk*kk
	oh0 := j0 / OW
	rows := ((j1-1)/OW-oh0)*stride + kk // input rows from oh0*stride-pad
	wp := (OW-1)*stride + kk            // input columns from -pad
	tbits := bits.Len(uint(2*nc - 1))   // a table at most half full
	fpBuf, idxBuf := fpScratch.Get(rows*wp+nc+1<<tbits), idxScratch.Get(nc+2*kdim)
	pos, keys, table := (*fpBuf)[:rows*wp], (*fpBuf)[rows*wp:rows*wp+nc], (*fpBuf)[rows*wp+nc:]
	first := (*idxBuf)[:nc]
	g := windows[T]{src, H, W, kk, stride, pad, OW, (*idxBuf)[nc : nc+kdim], (*idxBuf)[nc+kdim:]}
	for r := range kdim {
		g.taps[r], g.khw[r] = int32((r/(kk*kk)*H+r/kk%kk)*W+r%kk), int32(r/kk%kk<<16|r%kk)
	}

	for i, n := 0, 0; i < nc; i += n {
		oh, ow := (j0+i)/OW, (j0+i)%OW
		n = min(OW-ow, nc-i)
		positionFPs(src, C, H, W, oh*stride-pad+kk/2, ow*stride-pad+kk/2, stride, keys[i:i+n])
	}
	clear(table)
	cands := false
	for i, h := range keys {
		rep[i] = 0
		if f := lookup(table, tbits, h, i); f >= 0 {
			rep[i], rep[f], cands = 1, 1, true // candidates
		}
	}
	if cands {
		clear(table)
		for r := 0; r < rows; r++ {
			positionFPs(src, C, H, W, oh0*stride-pad+r, -pad, 1, pos[r*wp:(r+1)*wp])
		}
	}
	u := 0
	for i, oh, ow := 0, oh0, j0%OW; i < nc; i++ {
		c := -1
		if rep[i] != 0 {
			// A candidate whose fingerprint matches a window it does not equal
			// stays out of the table: a missed repeat, never a wrong one.
			c = lookup(table, tbits, windowFP(pos[(oh-oh0)*stride*wp+ow*stride:], wp, kk), u)
			if c >= 0 && !g.same(j0+int(first[c]), j0+i) {
				c = -1
			}
		}
		if c < 0 {
			c, first[u] = u, int32(i)
			u++
		}
		rep[i] = int32(c)
		if ow++; ow == OW {
			oh, ow = oh+1, 0
		}
	}
	for c := 0; c < u; c++ {
		g.gather(j0+int(first[c]), dst[c:], u)
	}
	fpScratch.Put(fpBuf)
	idxScratch.Put(idxBuf)
	return u
}

// lookup returns the value stored under fingerprint h in a table of 1<<tbits
// slots, or stores v and returns -1. An entry is 32 bits of h, value+1.
func lookup(table []uint64, tbits int, h uint64, v int) int {
	h *= fpMul
	check := h >> 16 << 32
	for slot := h >> (64 - tbits); ; slot = (slot + 1) & (1<<tbits - 1) {
		if e := table[slot]; e == 0 {
			table[slot] = check | uint64(v+1)
			return -1
		} else if e>>32 == check>>32 {
			return int(int32(e)) - 1
		}
	}
}

// positionFPs fingerprints the channel vectors of input row ih at columns
// iw0, iw0+step, ... into fps.
func positionFPs[T colScalar](src []T, C, H, W, ih, iw0, step int, fps []uint64) {
	zero := uint64(fpMul)
	for ic := 0; ic < C; ic++ {
		zero *= fpMul
	}
	lo, hi := len(fps), len(fps) // positions [lo, hi) lie inside the input
	if ih >= 0 && ih < H && iw0 < W {
		lo = min(max(-iw0+step-1, 0)/step, len(fps))
		hi = max(min((W-iw0+step-1)/step, len(fps)), lo)
	}
	for c := range fps {
		if c < lo || c >= hi {
			fps[c] = zero
		}
	}
	for ic := 0; ic < C && lo < hi; ic++ {
		fpMix(fps[lo:hi], src[ic*H*W+ih*W+iw0+lo*step:], step, ic == 0)
	}
}

// fpMix folds the taps in[0], in[step], ... of one channel into their
// positions' fingerprints, which the first channel starts from fpMul.
func fpMix[T colScalar](fps []uint64, in []T, step int, first bool) {
	for c := range fps {
		h := fps[c]
		if first {
			h = fpMul
		}
		fps[c] = (h ^ tapBits(in[c*step])) * fpMul
	}
}

// windowFP combines a window's kk x kk position fingerprints, rows wp apart.
func windowFP(pos []uint64, wp, kk int) uint64 {
	var h uint64
	for kh := 0; kh < kk; kh++ {
		for kw, f := range pos[kh*wp : kh*wp+kk] {
			h ^= bits.RotateLeft64(f, 7*(kh*kk+kw))
		}
	}
	return h
}

// windows reads one item's receptive fields: panel row r is offset taps[r]
// from a window's top-left, khw[r] = kh<<16 | kw rows and columns away.
type windows[T colScalar] struct {
	src                       []T
	H, W, kk, stride, pad, OW int
	taps, khw                 []int32
}

// at returns pixel j's top-left tap and whether its window is in the input.
func (g *windows[T]) at(j int) (ih, iw int, inside bool) {
	ih, iw = j/g.OW*g.stride-g.pad, j%g.OW*g.stride-g.pad
	return ih, iw, ih >= 0 && iw >= 0 && ih+g.kk <= g.H && iw+g.kk <= g.W
}

// tap reads panel row r of the window at (ih, iw), zero outside the input.
func (g *windows[T]) tap(ih, iw, r int) T {
	if kh, kw := int(g.khw[r]>>16), int(g.khw[r]&0xffff); uint(ih+kh) < uint(g.H) && uint(iw+kw) < uint(g.W) {
		return g.src[ih*g.W+iw+int(g.taps[r])]
	}
	return 0
}

// same reports whether pixels a and b have bit-identical receptive fields.
func (g *windows[T]) same(a, b int) bool {
	iha, iwa, ina := g.at(a)
	ihb, iwb, inb := g.at(b)
	if ina && inb {
		pa, pb := iha*g.W+iwa, ihb*g.W+iwb
		for _, o := range g.taps {
			if !sameBits(g.src[pa+int(o)], g.src[pb+int(o)]) {
				return false
			}
		}
		return true
	}
	for r := range g.taps {
		if !sameBits(g.tap(iha, iwa, r), g.tap(ihb, iwb, r)) {
			return false
		}
	}
	return true
}

// gather writes pixel j's panel column to dst[0], dst[ld], dst[2*ld], ...
func (g *windows[T]) gather(j int, dst []T, ld int) {
	if ih, iw, in := g.at(j); in {
		p := g.src[ih*g.W+iw:]
		for r, o := range g.taps {
			dst[r*ld] = p[o]
		}
	} else {
		for r := range g.taps {
			dst[r*ld] = g.tap(ih, iw, r)
		}
	}
}

// tapBits is a tap's bits: an int8 tap's exact float32 value is one-to-one.
func tapBits[T colScalar](v T) uint64 { return uint64(math.Float32bits(float32(v))) }

// sameBits: equal nonzero values have equal bits; zeros and NaNs may not.
func sameBits[T colScalar](a, b T) bool {
	return a == b && a != 0 || tapBits(a) == tapBits(b)
}

// SpreadCols expands one output row from DistinctPanel's u results, held in
// row[:u], to every pixel: row[i] = row[rep[i]]. Since rep[i] <= i, walking
// down from the end never reads a slot it has already overwritten.
func SpreadCols[T colScalar](row []T, rep []int32) {
	for i := len(row) - 1; i >= 0; i-- {
		row[i] = row[rep[i]]
	}
}
