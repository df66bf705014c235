package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads: the bound
// by which each end-to-end metric may get worse, and its direction.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// Verdicts of one (workload, metric) row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of a (the baseline) with the runs of b. The
// medians decide, against the metric's bound — unless either side's own
// spread (interquartile distance over median) is wider than the bound, in
// which case the row is unresolved rather than "same", except when every run
// of one side beats every run of the other.
func judge(a, b []float64, m benchmarkMetric) string {
	// goodness: larger is better, whatever the metric's direction.
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return verdictUnresolved
	}
	if spreadShare(a) > m.Bound || spreadShare(b) > m.Bound {
		worstA, bestA := goodnessRange(a, sign)
		worstB, bestB := goodnessRange(b, sign)
		switch {
		case worstB > bestA:
			return verdictBetter
		case bestB < worstA:
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch gain := sign * (mb - ma) / ma; {
	case gain < -m.Bound:
		return verdictWorse
	case gain > m.Bound:
		return verdictBetter
	}
	return verdictSame
}

// goodnessRange returns the worst and best of v once sign has turned it so
// that larger is better.
func goodnessRange(v []float64, sign float64) (worst, best float64) {
	s := sorted(v)
	lo, hi := sign*s[0], sign*s[len(s)-1]
	return min(lo, hi), max(lo, hi)
}

// endToEndValues collects, per workload and metric, the values of the
// untraced passes of every run in f.
func endToEndValues(f *resultFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		for _, w := range r.Workloads {
			if w.Traced {
				continue
			}
			if out[w.Workload] == nil {
				out[w.Workload] = map[string][]float64{}
			}
			for name, m := range w.Metrics {
				out[w.Workload][name] = append(out[w.Workload][name], m.Value)
			}
		}
	}
	return out
}

// runCompare prints one row per (workload, end-to-end metric) and returns a
// process exit code: 0 when nothing is worse, 1 when something is, 2 when
// the files cannot be compared.
func runCompare(w io.Writer, pathA, pathB string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "darpa-bench -compare:", err)
		return 2
	}
	bench, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return fail(err)
	}
	if ok, diff := sameBox(a.Box, b.Box); !ok {
		return fail(fmt.Errorf("the two results were not measured alike:\n%s", diff))
	}
	if a.Box.Quick {
		return fail(fmt.Errorf("-quick results carry no bounds; compare full runs"))
	}
	fmt.Fprintf(w, "baseline %s (%s, %d runs)  against  %s (%s, %d runs)\n", pathA, a.Box.Commit, len(a.Runs), pathB, b.Box.Commit, len(b.Runs))
	va, vb := endToEndValues(a), endToEndValues(b)
	anyWorse := false
	for _, wl := range workloads {
		for _, m := range bench.EndToEnd {
			xa, xb := va[wl][m.Name], vb[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(xa, xb, m)
			anyWorse = anyWorse || v == verdictWorse
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(w, "  %-13s %-26s %12.4f -> %12.4f %-10s %+6.1f%%  bound %4.1f%%  spread %4.1f%% / %4.1f%%  %s\n",
				wl, m.Name, ma, mb, m.Unit, 100*(mb-ma)/ma, 100*m.Bound, 100*spreadShare(xa), 100*spreadShare(xb), v)
		}
	}
	if anyWorse {
		return 1
	}
	return 0
}
