//go:build race

package yolite

const raceEnabled = true
