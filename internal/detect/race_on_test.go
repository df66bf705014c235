//go:build race

package detect

const raceEnabled = true
