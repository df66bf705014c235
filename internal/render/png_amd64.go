package render

// The amd64 path of unfilter and adler32: the SSE2 kernels of png_amd64.s.
// SSE2 is part of amd64 itself, so no CPU check selects them.

// unfilterRow is unfilterGo in SSE2 for filter types 1 to 4 and bpp 3 or 4.
//
//go:noescape
func unfilterRow(ft byte, cur, prev []byte, bpp int)

// adlerBlock is adler32Blocks' step: it takes whole 32-byte steps.
const adlerBlock = 32

// adler32Blocks sums p, a positive multiple of 32 bytes long, mod 2^32: sum
// is its bytes; wsum is each byte times its distance from the end of its
// 32-byte step (32 for a step's first byte, 1 for its last); psum is, over
// the steps, the sum of the bytes before each.
//
//go:noescape
func adler32Blocks(p []byte) (sum, wsum, psum uint32)
