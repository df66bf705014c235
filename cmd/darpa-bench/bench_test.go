package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The harness's own logic, tested without running a workload: the whole file
// stays well under ten seconds so tier-1 time does not grow.

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},   // p75 of 10 leaves 2 beyond
		{39, 0, false},   // p75 of 39 leaves 9 beyond
		{40, 75, true},   // p75 of 40 leaves exactly 10
		{100, 90, true},  // p90 leaves 10, p95 leaves 5
		{200, 95, true},  // p95 leaves 10, p99 leaves 2
		{1000, 99, true}, // p99 leaves 10, p99.9 leaves 1
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 95: 10, 90: 9, 10: 1, 100: 10} {
		if got := percentile(asc, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(asc)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25 (Python's exclusive method)", q1, q3)
	}
	if got := spreadShare(asc); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare(1..10) = %v, want 1", got)
	}
}

// A neighbour that steals from some windows moves them along the line, not the
// line: the figure at zero steal is what the quiet windows read, whether or
// not the run had one. A change that slows every window moves it.
func TestAtZeroStealFollowsTheLineBack(t *testing.T) {
	figure := func(w usageWindow) float64 { return w.cpuMSPerOp }
	// 7 ms at rest, stretched by the window's steal to the power 1.5.
	at := func(base float64, stretch ...float64) []usageWindow {
		var ws []usageWindow
		for _, x := range stretch {
			ws = append(ws, usageWindow{stretch: x, cpuMSPerOp: base * math.Exp(1.5*x), opsPerS: 100 * math.Exp(-x)})
		}
		return ws
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*want }
	disturbed := at(7, 0.1, 0.3, 0.2, 0.25, 0.15, 0.4, 0.1, 0.35, 0.2, 0.3) // never quiet
	if got := atZeroSteal(disturbed, figure, true); !near(got, 7) {
		t.Errorf("time at zero steal = %v, want 7", got)
	}
	if got := atZeroSteal(disturbed, usageWindow.rate, false); !near(got, 100) {
		t.Errorf("rate at zero steal = %v, want 100", got)
	}
	if got := atZeroSteal(at(8, 0.1, 0.3, 0.2, 0.25), figure, true); !near(got, 8) {
		t.Errorf("a slower program reads %v, want 8", got)
	}
	// One window with a hiccup of its own does not bend the line.
	disturbed[4].cpuMSPerOp = 30
	if got := atZeroSteal(disturbed, figure, true); !near(got, 7) {
		t.Errorf("with a hiccup: %v, want 7", got)
	}
	// Steal never helps: a line that says so is scatter, and the median
	// window is reported instead.
	backwards := []usageWindow{{stretch: 0.3, cpuMSPerOp: 6}, {stretch: 0.2, cpuMSPerOp: 7}, {stretch: 0.1, cpuMSPerOp: 8}}
	if got := atZeroSteal(backwards, figure, true); !near(got, 7) {
		t.Errorf("backwards line: %v, want the median window, 7", got)
	}
	// No steal anywhere, too few windows, windows without a sample.
	if got := atZeroSteal(at(7, 0, 0, 0), figure, true); !near(got, 7) {
		t.Errorf("no steal: %v, want 7", got)
	}
	if got := atZeroSteal(at(7, 0.5), figure, true); !near(got, 7*math.Exp(0.75)) {
		t.Errorf("one window: %v, want the window itself", got)
	}
	if got := atZeroSteal([]usageWindow{{stretch: 0.1}}, figure, true); got != 0 {
		t.Errorf("no sample: %v, want 0", got)
	}
}

func TestUsageWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	u := &usageLog{readings: []usage{
		{at: t0, cpuS: 1.00, ops: 0, busyS: 10, stolenS: 1},
		{at: t0.Add(window), cpuS: 1.50, ops: 100, busyS: 11, stolenS: 1},                        // 5 ms/op, 100 op/s, no steal
		{at: t0.Add(2 * window), cpuS: 1.50, ops: 100, busyS: 11, stolenS: 1},                    // idle: no operations, no window
		{at: t0.Add(3 * window), cpuS: 2.50, ops: 300, busyS: 12, stolenS: 1.5},                  // 5 ms/op, 200 op/s, stretched by half
		{at: t0.Add(3*window + time.Millisecond), cpuS: 2.51, ops: 301, busyS: 12, stolenS: 1.5}, // closing reading: too short to use
	}}
	ws, err := u.windows()
	if err != nil || len(ws) != 2 || ws[0].cpuMSPerOp != 5 || ws[1].cpuMSPerOp != 5 || ws[0].opsPerS != 100 || ws[1].opsPerS != 200 ||
		ws[0].stretch != 0 || math.Abs(ws[1].stretch-math.Log(1.5)) > 1e-12 {
		t.Errorf("windows = %+v, %v", ws, err)
	}
	if _, err := (&usageLog{}).windows(); err == nil {
		t.Error("an empty log gave windows")
	}

	// A phase hands each window the latencies of the operations that
	// completed in it: not the failed one, not the straggler past the last
	// whole window.
	p := phase{start: t0, ops: []opResult{
		{end: window / 2, lat: 7 * time.Millisecond},
		{end: window, lat: 8 * time.Millisecond},
		{end: window + time.Millisecond, lat: 20 * time.Millisecond}, // in the idle stretch
		{end: 2*window + time.Millisecond, lat: 9 * time.Millisecond, err: os.ErrClosed},
		{end: 3 * window, lat: 10 * time.Millisecond},
		{end: 3*window + time.Millisecond, lat: time.Second},
	}}
	ws, err = p.windows(u)
	if err != nil || len(ws) != 2 || len(ws[0].latMS) != 2 || p50(ws[0]) != 7.5 || len(ws[1].latMS) != 1 || p95(ws[1]) != 10 {
		t.Errorf("phase windows = %+v, %v", ws, err)
	}

	busy, stolen, err := parseStatBox([]byte("cpu  100 1 50 9000 20 3 6 40 0 0\ncpu0 1 2 3\n"))
	if err != nil || busy != 1.60 || stolen != 0.40 {
		t.Errorf("parseStatBox = %v, %v, %v; want 1.6, 0.4", busy, stolen, err)
	}
	if _, _, err := parseStatBox([]byte("intr 1 2 3\n")); err == nil {
		t.Error("a line that is not the cpu line parsed")
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	// request [0,100) has children a [10,40) and b [30,60) (overlapping) and
	// c [70,80); a has a grandchild [15,25), which is not request's child.
	spans := []span{
		{Name: "request", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "a", StartNS: 10, EndNS: 40, Parent: 0},
		{Name: "b", StartNS: 30, EndNS: 60, Parent: 0},
		{Name: "c", StartNS: 70, EndNS: 80, Parent: 0},
		{Name: "leaf", StartNS: 15, EndNS: 25, Parent: 1},
	}
	want := []time.Duration{100 - 50 - 10, 30 - 10, 30, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	// Two spans of one name in one request cost that request their sum.
	spans = append(spans, span{Name: "c", StartNS: 90, EndNS: 95, Parent: 0})
	per := perRequest(spans, selfTimes(spans), "c")
	if len(per) != 1 || math.Abs(per[0]-0.015) > 1e-9 {
		t.Errorf("perRequest(c) = %v, want [0.015] us", per)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", -1, 0)) // must not panic
	live := newTracer()
	id := live.begin("x", -1, 3)
	live.end(id)
	if len(live.spans) != 1 || live.spans[0].Req != 3 || live.spans[0].EndNS < live.spans[0].StartNS {
		t.Errorf("recorded %+v", live.spans)
	}
}

func corpusDigest(t *testing.T, seed int64, res resolution) [sha256.Size]byte {
	t.Helper()
	corpus, err := buildCorpus(seed, res, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	pngs, err := encodePNGs(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPNGRoundTrip(corpus, pngs, len(corpus)); err != nil {
		t.Fatal(err)
	}
	bodies, err := jsonBodies(pngs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, b := range bodies {
		h.Write(b)
		for _, box := range corpus[i].truth {
			h.Write([]byte{byte(box.Class)})
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameCorpus(t *testing.T) {
	for _, res := range []resolution{resModel, resHires} {
		a, b := corpusDigest(t, 5, res), corpusDigest(t, 5, res)
		if a != b {
			t.Errorf("%dx%d: the same seed gave different request bodies", res.w, res.h)
		}
		if c := corpusDigest(t, 6, res); a == c {
			t.Errorf("%dx%d: seeds 5 and 6 gave the same request bodies", res.w, res.h)
		}
	}
}

func TestHiresIsTheAuditScreenDoubled(t *testing.T) {
	mid, err := buildCorpus(9, resAudit, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := buildCorpus(9, resHires, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hi {
		back := hi[i].canvas.Downsample2x()
		if back.W != mid[i].canvas.W || string(back.Pix) != string(mid[i].canvas.Pix) {
			t.Fatalf("screen %d: halving the 384x640 screen does not give back the 192x320 one", i)
		}
		for j, b := range hi[i].truth {
			if b.B != mid[i].truth[j].B.Scale(2, 2) {
				t.Fatalf("screen %d: truth box %d not doubled", i, j)
			}
		}
	}
}

func TestParseProc(t *testing.T) {
	stat := []byte("4242 (darpa serve) x) S 1 4242 4242 0 -1 4194560 913 0 0 0 150 25 0 0 20 0 9 0 100 1000 200 18446744073709551615\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 1.75 {
		t.Errorf("parseStatCPU = %v, %v; want 1.75", cpu, err)
	}
	rss, err := parseVmHWM([]byte("Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n"))
	if err != nil || rss != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20", rss, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

func TestJudge(t *testing.T) {
	lower := benchmarkMetric{Name: "detect_p50_ms", Better: "lower", Bound: 0.05}
	higher := benchmarkMetric{Name: "detect_rps", Better: "higher", Bound: 0.05}
	tight := func(c float64) []float64 { return []float64{c * 0.995, c, c * 1.005, c * 1.002, c * 0.998} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c * 0.9, c, c * 1.1, c * 1.2} }
	cases := []struct {
		name string
		a, b []float64
		m    benchmarkMetric
		want string
	}{
		{"within the bound", tight(10), tight(10.3), lower, verdictSame},
		{"latency up 10%", tight(10), tight(11), lower, verdictWorse},
		{"latency down 10%", tight(10), tight(9), lower, verdictBetter},
		{"throughput down 10%", tight(100), tight(90), higher, verdictWorse},
		{"throughput up 10%", tight(100), tight(110), higher, verdictBetter},
		{"spread wider than the bound", wide(10), wide(10.2), lower, verdictUnresolved},
		{"wide, but every run better", wide(10), wide(5), lower, verdictBetter},
		{"wide, but every run worse", wide(100), wide(50), higher, verdictWorse},
		{"single runs", []float64{10}, []float64{10.2}, lower, verdictSame},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesADifferentBox(t *testing.T) {
	a := describeBox(20, false)
	b := a
	b.Commit = "another"
	if ok, _ := sameBox(a, b); !ok {
		t.Error("a different commit must still compare: that is the point")
	}
	b.GoMaxProcs++
	if ok, diff := sameBox(a, b); ok || diff == "" {
		t.Error("a different GOMAXPROCS compared")
	}
}

func TestAppendRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	bx := describeBox(20, false)
	r := run{Seed: 1, Workloads: []*workloadResult{{Workload: "audit-batch", Correct: true, Metrics: map[string]metricValue{"setup_s": {1, "s"}}}}}
	for i := 0; i < 2; i++ {
		if err := appendRun(path, bx, r); err != nil {
			t.Fatal(err)
		}
	}
	f, err := readResultFile(path)
	if err != nil || len(f.Runs) != 2 {
		t.Fatalf("read back %v runs, err %v; want 2", f, err)
	}
	if got := endToEndValues(f)["audit-batch"]["setup_s"]; len(got) != 2 {
		t.Errorf("collected %v", got)
	}
	bx.Quick = true
	if err := appendRun(path, bx, r); err == nil {
		t.Error("appended a -quick run to a full result file")
	}
}

// TestBenchmarkFileAgrees holds the harness's tables against the root
// BENCHMARK.json: same workloads, same metrics, same units, same run length.
func TestBenchmarkFileAgrees(t *testing.T) {
	b, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json above this package")
	}
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q declared, harness has %q", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, declared []benchmarkMetric, have []metricDef) {
		if len(declared) != len(have) {
			t.Errorf("%s: %d metrics declared, harness prints %d", kind, len(declared), len(have))
			return
		}
		for i, d := range declared {
			if d.Name != have[i].name || d.Unit != have[i].unit {
				t.Errorf("%s metric %d: declared %s [%s], harness %s [%s]", kind, i, d.Name, d.Unit, have[i].name, have[i].unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better=%q", d.Name, d.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestFleetGoldenCoversTheRunSizes keeps the seed-1 gate from going quiet: the
// golden file must pin the totals at exactly the sizes the harness runs.
func TestFleetGoldenCoversTheRunSizes(t *testing.T) {
	var golden []fleetTotals
	if err := json.Unmarshal(fleetGoldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	sizes := []struct {
		sz      sizing
		seconds float64
	}{{fullSizing, defaultSeconds}, {quickSizing, quickSeconds}}
	for _, s := range sizes {
		cfg := fleetConfig(runEnv{seed: 1, seconds: s.seconds, sz: s.sz}, s.sz.fleetDevices)
		if cfg.Seed != 1+fleetSeedOffset {
			t.Errorf("fleet seed %d", cfg.Seed)
		}
		found := false
		for _, g := range golden {
			found = found || (g.Devices == cfg.Devices && g.SimSeconds == cfg.Duration.Seconds() && g.Analyses > 0)
		}
		if !found {
			t.Errorf("no golden totals for %d devices x %v", cfg.Devices, cfg.Duration)
		}
	}
}
