//go:build !race

package yolite

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are meaningless under its instrumentation.
const raceEnabled = false
