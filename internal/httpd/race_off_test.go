//go:build !race

package httpd

// raceEnabled reports whether the race detector is active; its sync.Pool
// drops a quarter of its Puts, so allocation figures mean nothing under it.
const raceEnabled = false
