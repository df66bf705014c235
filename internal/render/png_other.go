//go:build !amd64

package render

// Off amd64 unfilter runs the Go loops, and adler32 sums every byte in its
// own loop: with no block size, adler32Blocks is never called.

func unfilterRow(ft byte, cur, prev []byte, bpp int) { unfilterGo(ft, cur, prev, bpp) }

const adlerBlock = 0

func adler32Blocks(p []byte) (sum, wsum, psum uint32) {
	panic("render: no SIMD adler32 on this GOARCH")
}
