package tensor

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
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
// direct loop), int8 accumulates in int32, which is exact, and every
// kernel's epilogue is elementwise.
//
// Windows are compared by position labels, not by taps. A label is an int32
// per input position of one item: equal exactly when the channel vectors are
// bit-identical (float32 by bits: -0 and +0 differ, NaNs match only with the
// same payload), and -1 for the all-+0 vector, which is what padding holds.
// Two windows are equal exactly when their kk x kk label tuples are. Each
// layer hands the next its output's labels (labelBlock), and input with no
// producer is labelled once, before its blocks are searched (LabelInput).
// Equal windows have equal centre labels, so a pixel whose centre label no
// other pixel of the block shares is new; the other candidates' label
// tuples go through a hash table.

// colScalar is the element type an im2col panel can hold: float32 for the
// float kernels, int8 for the quantised path (internal/quant).
type colScalar interface {
	~float32 | ~int8
}

var fpScratch Scratch[uint64] // hash tables
var idxScratch Scratch[int32] // labels, halos, first pixels, tap offsets, rep maps

// fpMul is an odd 64-bit multiplier, 2^64 divided by the golden ratio.
const fpMul = 0x9E3779B97F4A7C15

// DistinctPanel unpacks the panel for output pixels [j0, j1) of one CHW item:
// row (ic*kk+kh)*kk+kw holds tap (ic, kh, kw) of the window at (oh*stride-pad,
// ow*stride-pad), j = oh*OW+ow. lab holds the item's H*W position labels
// (its producer's, or LabelInput's). It writes the u distinct columns, first
// appearances in order, to dst as [kdim x u], sets rep[j-j0] to pixel j's
// column (so rep[i] <= i) and returns u. dst must hold kdim*(j1-j0) values.
func DistinctPanel[T colScalar](src []T, lab []int32, C, H, W, kk, stride, pad, OW, j0, j1 int, dst []T, rep []int32) int {
	nc, kdim := j1-j0, C*kk*kk
	oh0 := j0 / OW
	s := search[T]{src: src, H: H, W: W, kk: kk, stride: stride, pad: pad, OW: OW,
		ih0: oh0*stride - pad, wp: (OW-1)*stride + kk}
	rows := ((j1-1)/OW-oh0)*stride + kk
	buf := idxScratch.Get(rows*s.wp + 2*nc + 2*kdim)
	s.halo, s.taps, s.khw = (*buf)[:rows*s.wp], (*buf)[rows*s.wp+2*nc:][:kdim], (*buf)[rows*s.wp+2*nc+kdim:]
	wins, first := (*buf)[rows*s.wp:rows*s.wp+nc], (*buf)[rows*s.wp+nc:rows*s.wp+2*nc]
	for r := range s.taps {
		s.taps[r], s.khw[r] = int32((r/(kk*kk)*H+r/kk%kk)*W+r%kk), int32(r/kk%kk<<16|r%kk)
	}
	s.fill(lab)
	// A pixel whose centre label no other pixel of the block shares is new.
	centre := (kk/2)*s.wp + kk/2
	tab := newTable(nc, 1)
	cands := false
	for i, n := 0, 0; i < nc; i += n {
		oh, ow := (j0+i)/OW, (j0+i)%OW
		n = min(OW-ow, nc-i)
		for k := i; k < i+n; k++ {
			wins[k] = int32((oh-oh0)*stride*s.wp + (ow+k-i)*stride)
			l := s.halo[int(wins[k])+centre]
			f := tab.find(uint64(uint32(l))*fpMul, int32(k), func(f int32) bool { return s.halo[int(wins[f])+centre] == l })
			rep[k] = 0
			if int(f) != k {
				rep[k], rep[f], cands = 1, 1, true
			}
		}
	}
	if cands {
		clear(tab.slots)
	}
	u := 0
	for i, w := range wins {
		c := u
		if rep[i] != 0 && i > 0 && w == wins[i-1]+int32(stride) && s.sameWindow(int(wins[i-1]), int(w)) {
			c = int(rep[i-1]) // the left neighbour's window: flat runs skip the table
		} else if rep[i] != 0 {
			c = int(tab.find(s.windowHash(int(w)), int32(u), func(c int32) bool { return s.sameWindow(int(wins[first[c]]), int(w)) }))
		}
		if c == u {
			first[u] = int32(i)
			u++
		}
		rep[i] = int32(c)
	}
	for c := 0; c < u; c++ {
		s.gather(j0+int(first[c]), dst[c:], u)
	}
	fpScratch.Put(tab.buf)
	idxScratch.Put(buf)
	return u
}

// search holds one block's windows. halo[r*wp+c] labels input (ih0+r,
// c-pad), -1 outside; panel row r is taps[r] from a window's top-left tap,
// khw[r] = kh<<16 | kw rows and columns away.
type search[T colScalar] struct {
	src                       []T
	H, W, kk, stride, pad, OW int
	ih0, wp                   int
	halo, taps, khw           []int32
}

// fill copies the block's halo from the item's labels.
func (s *search[T]) fill(lab []int32) {
	for r := 0; r < len(s.halo)/s.wp; r++ {
		row := s.halo[r*s.wp : (r+1)*s.wp]
		for c := range row {
			row[c] = -1
		}
		if ih := s.ih0 + r; ih >= 0 && ih < s.H {
			copy(row[min(s.pad, s.wp):min(s.wp, s.pad+s.W)], lab[ih*s.W:])
		}
	}
}

// LabelInput labels the N CHW items of x, item n's H*W position labels to
// lab[n*H*W:], as labelBlock labels a layer's output: equal exactly when the
// channel vectors are bit-identical, -1 exactly for all +0. A batch labels
// its items on the worker pool.
func LabelInput[T colScalar](x []T, N, C, H, W int, lab []int32) {
	per, plane := C*H*W, H*W
	if N > 1 && ParallelWorthwhile(len(x)) {
		ParallelFor(N, func(n int) { labelItem(x[n*per:(n+1)*per], W, lab[n*plane:(n+1)*plane]) })
		return
	}
	for n := range N {
		labelItem(x[n*per:(n+1)*per], W, lab[n*plane:(n+1)*plane])
	}
}

// labelItem labels one item's positions, rows W wide. A position whose
// vector equals its left neighbour's, found one channel plane at a time,
// takes its label (screens are mostly runs); each run head is looked up
// once (vecLabel) in a table of the item's own, sized for the heads.
func labelItem[T colScalar](src []T, W int, lab []int32) {
	for p := range lab {
		lab[p] = 1 // equal to the left so far
	}
	for r := 0; r < len(lab); r += W {
		lab[r] = 0 // a row's first position heads a run
	}
	for o := 0; o < len(src); o += len(lab) {
		ch := src[o : o+len(lab)]
		for p := 1; p < len(ch); p++ {
			// Unequal bits or a NaN; only zeros can be equal with unequal bits.
			if v, w := ch[p], ch[p-1]; v != w || v == 0 && math.Float32bits(float32(v)) != math.Float32bits(float32(w)) {
				lab[p] = 0
			}
		}
	}
	heads := 0
	for _, same := range lab {
		heads += int(1 - same)
	}
	t := newTable(heads, 1)
	for p, same := range lab {
		if same == 1 {
			lab[p] = lab[p-1]
		} else {
			lab[p] = vecLabel(&t, src, len(lab), p, vecHash(src, len(lab), p))
		}
	}
	fpScratch.Put(t.buf)
}

// windowHash hashes the label tuple of the window at halo index w: rotate
// and xor per tap, one multiply at the end.
func (s *search[T]) windowHash(w int) uint64 {
	var h uint64
	for kh := 0; kh < s.kk; kh++ {
		for _, l := range s.halo[w+kh*s.wp : w+kh*s.wp+s.kk] {
			h = bits.RotateLeft64(h, 21) ^ uint64(uint32(l))
		}
	}
	return h * fpMul
}

// sameWindow reports whether the windows at halo indices a and b have equal
// label tuples.
func (s *search[T]) sameWindow(a, b int) bool {
	for o := 0; o < s.kk*s.wp; o += s.wp {
		if !slices.Equal(s.halo[a+o:a+o+s.kk], s.halo[b+o:b+o+s.kk]) {
			return false
		}
	}
	return true
}

// gather writes pixel j's panel column to dst[0], dst[ld], dst[2*ld], ...
func (s *search[T]) gather(j int, dst []T, ld int) {
	ih, iw := j/s.OW*s.stride-s.pad, j%s.OW*s.stride-s.pad
	if ih >= 0 && iw >= 0 && ih+s.kk <= s.H && iw+s.kk <= s.W {
		p := s.src[ih*s.W+iw:]
		for r, o := range s.taps {
			dst[r*ld] = p[o]
		}
		return
	}
	for r, o := range s.taps {
		var v T
		if y, x := ih+int(s.khw[r]>>16), iw+int(s.khw[r]&0xffff); uint(y) < uint(s.H) && uint(x) < uint(s.W) {
			v = s.src[ih*s.W+iw+int(o)]
		}
		dst[r*ld] = v
	}
}

// vecHash hashes the channel vector at position at of src, whose channel
// planes are plane apart; the all-+0 vector hashes to 0. Two rotate-xor
// chains take alternate channels: no long dependent chain.
func vecHash[T colScalar](src []T, plane, at int) uint64 {
	var h0, h1 uint64
	for ; at < len(src); at += plane {
		h0, h1 = h1, bits.RotateLeft64(h0, 7)^uint64(math.Float32bits(float32(src[at])))
	}
	return (h0 ^ bits.RotateLeft64(h1, 32)) * fpMul
}

// sameVec reports whether positions a and b of src, channel planes plane
// apart, hold bit-identical vectors (an int8 tap's float32 value is
// one-to-one); -1 stands for the all-+0 vector.
func sameVec[T colScalar](src []T, plane, a, b int) bool {
	if a, b = min(a, b), max(a, b); b < 0 {
		return true
	}
	for o := 0; b+o < len(src); o += plane {
		var va T
		if a >= 0 {
			va = src[a+o]
		}
		if math.Float32bits(float32(va)) != math.Float32bits(float32(src[b+o])) {
			return false
		}
	}
	return true
}

// vecLabel labels the vector at position at of src, whose hash is h: -1 if
// it is all +0, else the position t first saw it at.
func vecLabel[T colScalar](t *table, src []T, plane, at int, h uint64) int32 {
	if h == 0 && sameVec(src, plane, -1, at) {
		return -1
	}
	return t.find(h, int32(at), func(q int32) bool { return sameVec(src, plane, int(q), at) })
}

// table is an open-addressing hash table of non-negative int32 values, at
// most half full. A slot holds the top 32 bits of its key's hash and
// value+1; keys are not stored, so find confirms a candidate with eq. A
// shared table takes inserts from several goroutines at once.
type table struct {
	buf    *[]uint64 // the scratch slots come from
	slots  []uint64
	bits   int
	shared bool
}

// newTable returns items empty tables of room for n values each, back to
// back in slots.
func newTable(n, items int) table {
	t := table{bits: max(bits.Len(uint(2*n-1)), 1)}
	t.buf = fpScratch.Get(items << t.bits)
	t.slots = *t.buf
	clear(t.slots)
	return t
}

// find returns the value stored under hash h that eq accepts or, if there
// is none, stores v and returns it.
func (t *table) find(h uint64, v int32, eq func(int32) bool) int32 {
	check := h >> 32
	for slot := check >> (32 - t.bits); ; slot = (slot + 1) & (1<<t.bits - 1) {
		e := atomic.LoadUint64(&t.slots[slot])
		if e == 0 {
			if e = check<<32 | uint64(v+1); !t.shared {
				t.slots[slot] = e
				return v
			} else if atomic.CompareAndSwapUint64(&t.slots[slot], 0, e) {
				return v
			}
			e = atomic.LoadUint64(&t.slots[slot])
		}
		if e>>32 == check && eq(int32(e)-1) {
			return int32(e) - 1
		}
	}
}

// SpreadCols expands one output row from DistinctPanel's u results, held in
// row[:u], to every pixel: row[i] = row[rep[i]]. Since rep[i] <= i, walking
// down from the end never reads a slot it has already overwritten.
func SpreadCols[T colScalar](row []T, rep []int32) {
	for i := len(row) - 1; i >= 0; i-- {
		row[i] = row[rep[i]]
	}
}

// labelBlock turns rep, the rep map of output pixels [j0, j0+len(rep)) of
// item n, whose outC x cols outputs y holds, into their labels: equal exactly
// when the output vectors are bit-identical, -1 exactly for all +0. tabs
// holds one shared table per item, so every column block labels its columns
// as soon as its epilogue is done and no serial step joins the blocks. Item
// n's table joins the columns of all blocks, and distinct windows
// requantisation or leaky-ReLU collapse: each column is looked up once, by
// its vector's hash, with an exact compare on a hit.
func labelBlock[T colScalar](tabs table, n int, y []T, cols, j0 int, rep []int32) {
	t := table{slots: tabs.slots[n<<tabs.bits : (n+1)<<tabs.bits], bits: tabs.bits, shared: true}
	buf := idxScratch.Get(len(rep))
	colLab, u := *buf, int32(0)
	for i, c := range rep {
		if c == u { // the column's first pixel
			colLab[c] = vecLabel(&t, y, cols, j0+i, vecHash(y, cols, j0+i))
			u++
		}
		rep[i] = colLab[c]
	}
	idxScratch.Put(buf)
}
