package sim

import "math"

// Splitmix is a splitmix64 generator: 8 bytes of state instead of the ~5 KB
// a math/rand.Rand carries. At 100k+ simulated devices that difference is
// half a gigabyte, and a stream per consumer (device, search restart) is what
// makes a run exactly replayable: each draws only from its own stream, so no
// interleaving of consumers, or refactor of who draws first, can perturb
// another's sequence.
type Splitmix struct{ s uint64 }

// golden is the splitmix64 increment (2^64 / phi).
const golden = 0x9E3779B97F4A7C15

// Stream derives stream i of a run from its seed. The seed is diffused
// through one splitmix round before the stream index lands on it, so
// adjacent streams do not start in adjacent state.
func Stream(seed int64, i int) Splitmix {
	return Splitmix{s: mix64(uint64(seed)) + uint64(i+1)*golden}
}

// mix64 is the splitmix64 output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 advances the stream.
func (r *Splitmix) Uint64() uint64 {
	r.s += golden
	return mix64(r.s)
}

// Intn returns a value in [0, n). n must be positive. The tiny modulo bias
// (< 2^-50 for the small n the simulators draw) is irrelevant for traffic
// shaping and costs no rejection loop.
func (r *Splitmix) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Int63n is Intn for 64-bit ranges.
func (r *Splitmix) Int63n(n int64) int64 { return int64(r.Uint64() % uint64(n)) }

// Float64 returns a value in [0, 1).
func (r *Splitmix) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *Splitmix) ExpFloat64() float64 { return -math.Log(1 - r.Float64()) }
