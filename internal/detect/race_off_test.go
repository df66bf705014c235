//go:build !race

package detect

// raceEnabled reports whether the race detector is active; its sync.Pool
// drops a quarter of its Puts, so reuse assertions are meaningless under it.
const raceEnabled = false
