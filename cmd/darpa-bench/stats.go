package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile (p in (0,100]) of an ascending
// slice: the smallest sample with at least p% of the samples at or below it.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rankOf(p, len(asc))-1]
}

// rankOf is the nearest rank of percentile p among n samples, 1-based. The
// small allowance keeps 99.9% of 10 000 at rank 9 990, not 9 991.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates highestPercentile chooses from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// highestPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it — above that, the "percentile" is one or two
// outliers and repeats badly. ok is false when even p75 is unsupported.
func highestPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if n-rankOf(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the acceptance driver uses for its spread check.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(v []float64) float64 {
	med := median(v)
	if med == 0 || len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / med)
}

// The sizing box is a two-vCPU virtual machine on a shared host, and what its
// neighbours do to it shows in /proc/stat as steal: the time a vCPU had work
// and the hypervisor ran someone else. Over fourteen runs of serve-lowres in
// seven minutes, steal went from 0.02 to 0.71 CPU-seconds per second, and with
// it phase lat's p95 from 10 ms to 34 ms and phase sat's rate from 164 to
// 76 req/s. Steal stretches CPU work by (busy + stolen) / busy; a figure that
// is partly CPU work moves with some power of that stretch, so its logarithm
// is a straight line over ln(1 + stolen/busy): slope 1 for a rate that is all
// CPU (measured 1.2 on phase sat), 0.6 for the p50 (the batch wait does not
// stretch), 1.6 for the p95 (the tail is the requests a steal landed on).
//
// So every timing is taken per one-second window, next to that window's
// steal, and a run reports where the line through its windows meets zero
// steal: what the program does on the machine when it has it to itself. A
// change to the program moves every window, and the line with it; a busy
// neighbour moves windows along the line. On those fourteen runs the spread
// (interquartile distance over the median) of p50 / p95 / rate fell from
// 13 % / 40 % / 21 % with a quartile of windows to 4 % / 11 % / 6 %.
const window = time.Second

// atZeroSteal fits ln(figure) = a + b * stretch through the windows and
// returns exp(a). The fit is Theil-Sen's — b is the median of the slopes
// between all pairs of windows, a the median of what is left — because one
// window in ten has a hiccup of its own; and steal only ever slows, so b may
// not have the helpful sign. With no steal to tell windows apart, or too few
// windows, this is the median window. A window whose figure is not positive
// (no latency sample, no CPU tick) has nothing to say and is left out.
func atZeroSteal(ws []usageWindow, figure func(usageWindow) float64, lowerIsBetter bool) float64 {
	var x, y []float64
	for _, w := range ws {
		if v := figure(w); v > 0 {
			x, y = append(x, w.stretch), append(y, math.Log(v))
		}
	}
	if len(y) == 0 {
		return 0
	}
	var slopes []float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			if dx := x[j] - x[i]; math.Abs(dx) > 1e-9 {
				slopes = append(slopes, (y[j]-y[i])/dx)
			}
		}
	}
	b := 0.0
	if len(y) >= 3 {
		b = median(slopes)
	}
	if (b < 0) == lowerIsBetter {
		b = 0
	}
	for i := range y {
		y[i] -= b * x[i]
	}
	return math.Exp(median(y))
}

// stolenOverBusy is the median window's stolen CPU time as a share of the
// machine's busy time: how disturbed the run was, for whoever reads it.
func stolenOverBusy(phases ...[]usageWindow) float64 {
	var x []float64
	for _, ws := range phases {
		for _, w := range ws {
			x = append(x, math.Expm1(w.stretch))
		}
	}
	return median(x)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
