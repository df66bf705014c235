package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric and its unit. The regression bounds live in
// BENCHMARK.json alone; a unit test holds these tables against that file.
type metricDef struct{ name, unit string }

// endToEnd lists the nine end-to-end metrics in the order they are printed.
// detect_p95_ms is not among them: on identical code its ten-run spread
// passed the largest bound a metric may have, so it is reported with the
// load generator's other tail figures, where nothing is gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"detect_p50_ms", "ms"},
	{"detect_rps", "req/s"},
	{"audit_screens_per_s", "screens/s"},
	{"audit_int8_screens_per_s", "screens/s"},
	{"fleet_analyses_per_s", "analyses/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"recall_iou50", "share"},
}

// perLayer lists the per-layer metrics of the traced pass. A layer that is not
// on a workload's path reads 0 there: it spent no time and did no work.
var perLayer = []metricDef{
	{"httpd.body_decode_us", "us"},
	{"httpd.png_decode_us", "us"},
	{"render.from_image_us", "us"},
	{"render.downscale_us", "us"},
	{"yolite.to_tensor_us", "us"},
	{"yolite.forward_us", "us"},
	{"yolite.forward_b8_item_us", "us"},
	{"tensor.fused_b1_us", "us"},
	{"tensor.fused_b2_us", "us"},
	{"tensor.fused_b3_us", "us"},
	{"tensor.fused_b3b_us", "us"},
	{"tensor.fused_b4_us", "us"},
	{"tensor.fused_b5_us", "us"},
	{"tensor.heads_us", "us"},
	{"tensor.forward_mflop", "Mflop"},
	{"tensor.forward_gflops", "Gflop/s"},
	{"tensor.pool_new_per_forward", "count"},
	{"tensor.allocs_per_predict", "count"},
	{"yolite.decode_us", "us"},
	{"yolite.luma_us", "us"},
	{"yolite.refine_us", "us"},
	{"metrics.nms_us", "us"},
	{"yolite.predict_us", "us"},
	{"yolite.post_share", "share"},
	{"yolite.decode_kept_share", "share"},
	{"metrics.nms_kept_share", "share"},
	{"yolite.dets_per_screen", "count"},
	{"quant.forward_us", "us"},
	{"quant.forward_b8_item_us", "us"},
	{"quant.predict_us", "us"},
	{"quant.agree_share", "share"},
	{"detect.seam_overhead_ns", "ns"},
	{"detect.cache_hit_us", "us"},
	{"detect.cache_miss_overhead_us", "us"},
	{"detect.cache_hit_share", "share"},
	{"serve.overhead_us", "us"},
	{"serve.batch_mean_items", "count"},
	{"serve.batch_item_p50_us", "us"},
	{"serve.replica_busy_share", "share"},
	{"serve.cancelled_share", "share"},
	{"core.plan_ns", "ns"},
	{"httpd.resp_encode_us", "us"},
	{"budget.attributed_ms", "ms"},
	{"budget.unattributed_ms", "ms"},
	{"sim.event_ns", "ns"},
	{"fleet.events_per_s", "1/s"},
	{"fleet.superseded_share", "share"},
	{"fleet.gc_count", "count"},
	{"fleet.gc_pause_ms", "ms"},
	{"fleet.heap_mb", "MiB"},
	{"fleet.scale_ratio", "ratio"},
	{"detect_p95_ms", "ms"},
	{"client.p99_ms", "ms"},
	{"client.max_ms", "ms"},
	{"client.samples", "count"},
	{"bench.corpus_s", "s"},
	{"bench.trace_overhead_share", "share"},
}

// workloads are the four fixed workload names, in run order.
var workloads = []string{"serve-lowres", "serve-hires", "audit-batch", "fleet-50k"}

// sizing holds the knobs -quick turns down. Everything else about a run is
// fixed, so two result files differ only in what they measured.
type sizing struct {
	corpusAUI, corpusBenign int
	warmup                  int // requests a fresh server answers before it counts as set up
	setupReps               int // a server's set-up is measured this many times; the median is reported
	setupRepsInProc         int // the same for the in-process workloads, whose set-up is a tenth of a second and needs more readings to hold still
	fleetDevices            int
	fleetSimScale           float64 // stretches the simulated time, so a smaller fleet still has work to time
	traceItems              int     // corpus items the traced pass replays
}

var (
	fullSizing  = sizing{corpusAUI: corpusAUI, corpusBenign: corpusBenign, warmup: warmupRequests, setupReps: 3, setupRepsInProc: 9, fleetDevices: 50000, fleetSimScale: 1, traceItems: 256}
	quickSizing = sizing{corpusAUI: corpusAUI / 4, corpusBenign: corpusBenign / 4, warmup: warmupRequests / 5, setupReps: 1, setupRepsInProc: 1, fleetDevices: 5000, fleetSimScale: 10, traceItems: 64}
)

// runEnv is what one workload run is given.
type runEnv struct {
	seed      int64
	seconds   float64
	quick     bool
	sz        sizing
	traceFile string    // traced pass only: where the spans go ("" keeps them in memory)
	out       io.Writer // progress and tables, for people
}

// metricValue is a number with its unit, as the driver's result line wants.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseOps is the failure ledger of one phase.
type phaseOps struct {
	Phase     string `json:"phase"`
	Attempted int    `json:"ops_attempted"`
	Failed    int    `json:"ops_failed"`
}

// budgetRow is one line of a serve workload's latency budget.
type budgetRow struct {
	Layer  string  `json:"layer"`
	SelfUS float64 `json:"self_p50_us"`
	Share  float64 `json:"share_of_detect_p50"`
}

// workloadResult is everything one pass over one workload produced.
type workloadResult struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Seconds  float64                `json:"seconds"`
	Traced   bool                   `json:"traced"`
	Correct  bool                   `json:"correct"`
	Ops      []phaseOps             `json:"ops"`
	Metrics  map[string]metricValue `json:"metrics"`
	Notes    map[string]metricValue `json:"notes,omitempty"` // context that is not a declared metric
	Failures []string               `json:"failures,omitempty"`
	Budget   []budgetRow            `json:"budget,omitempty"`
	Verdicts []string               `json:"verdicts,omitempty"` // questions the traced pass answers in words
}

func newWorkloadResult(name string, env runEnv) *workloadResult {
	return &workloadResult{
		Workload: name, Seed: env.seed, Seconds: env.seconds, Correct: true,
		Metrics: map[string]metricValue{}, Notes: map[string]metricValue{},
	}
}

// declared is the metric table this pass reports from.
func (r *workloadResult) declared() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// set records a declared metric; an undeclared name is a bug in the harness.
func (r *workloadResult) set(name string, v float64) {
	for _, d := range r.declared() {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("darpa-bench: undeclared metric " + name)
}

func (r *workloadResult) note(name string, v float64, unit string) {
	r.Notes[name] = metricValue{Value: v, Unit: unit}
}

// fail marks the run incorrect.
func (r *workloadResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// addPhase folds one closed-loop phase into the failure ledger. Any failed
// operation — transport error, non-200, wrong answer — fails the run.
func (r *workloadResult) addPhase(p phase) {
	r.addOps(p.name, p.attempted, p.failed)
	for _, f := range p.failures {
		r.fail("%s: %s", p.name, f)
	}
}

func (r *workloadResult) addOps(name string, attempted, failed int) {
	r.Ops = append(r.Ops, phaseOps{Phase: name, Attempted: attempted, Failed: failed})
	if failed > 0 {
		r.fail("%s: %d of %d operations failed", name, failed, attempted)
	}
}

// The driver's schema wants every end-to-end metric from every workload, and
// rejects zeros. Where a metric is defined on other workloads only, the run
// reports this workload's own measurement of the same kind — its completed
// operations per second for a throughput, its time per operation for a
// latency — so the extra rows repeat a gate the workload already has and can
// never move on their own. README.md lists which rows are native.

// aliasThroughput fills the throughput metrics this workload does not define.
func (r *workloadResult) aliasThroughput(opsPerSecond float64) {
	for _, name := range []string{"detect_rps", "audit_screens_per_s", "audit_int8_screens_per_s", "fleet_analyses_per_s"} {
		if _, ok := r.Metrics[name]; !ok {
			r.set(name, opsPerSecond)
		}
	}
}

// aliasLatency fills the latency metric this workload does not define.
func (r *workloadResult) aliasLatency(msPerOp float64) {
	if _, ok := r.Metrics["detect_p50_ms"]; !ok {
		r.set("detect_p50_ms", msPerOp)
	}
}

// missing reports the declared metrics the run did not set. The traced pass
// fills those with 0 (the layer is not on this workload's path); for the
// untraced pass a gap is an error.
func (r *workloadResult) missing() []string {
	var out []string
	for _, d := range r.declared() {
		if _, ok := r.Metrics[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

func (r *workloadResult) totals() (attempted, failed int) {
	for _, o := range r.Ops {
		attempted += o.Attempted
		failed += o.Failed
	}
	return attempted, failed
}

// print writes the human-readable report of one pass.
func (r *workloadResult) print(w io.Writer) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %gs  %s ==\n", r.Workload, r.Seed, r.Seconds, pass)
	for _, o := range r.Ops {
		fmt.Fprintf(w, "  %-28s ops_attempted %d  ops_failed %d\n", r.Workload+"/"+o.Phase, o.Attempted, o.Failed)
	}
	for _, d := range r.declared() {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	notes := make([]string, 0, len(r.Notes))
	for name := range r.Notes {
		notes = append(notes, name)
	}
	sort.Strings(notes)
	for _, name := range notes {
		fmt.Fprintf(w, "  (%-30s %14.4f %s)\n", name, r.Notes[name].Value, r.Notes[name].Unit)
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "  latency budget, HTTP bytes to decoration JSON (self-time p50, share of detect_p50_ms):\n")
		for _, b := range r.Budget {
			fmt.Fprintf(w, "    %-30s %10.1f us  %5.1f%%\n", b.Layer, b.SelfUS, 100*b.Share)
		}
	}
	for _, v := range r.Verdicts {
		fmt.Fprintf(w, "  verdict: %s\n", v)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.Correct {
		fmt.Fprintf(w, "  correctness: ok\n")
	} else {
		fmt.Fprintf(w, "  correctness: FAILED\n")
	}
}

// driverLine is the last line of standard output in single-workload mode.
func (r *workloadResult) driverLine() string {
	attempted, failed := r.totals()
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, max(attempted, 1), failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(line)
}

// box describes where and how a result was measured. Two results compare
// only when their boxes agree (commit aside: that is what is being compared).
type box struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	LatClients int     `json:"lat_clients"`
	SatClients int     `json:"sat_clients"`
	Seconds    float64 `json:"seconds_per_workload"`
	Quick      bool    `json:"quick"`
}

func describeBox(seconds float64, quick bool) box {
	b := box{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", LatClients: latClients, SatClients: satClients, Seconds: seconds, Quick: quick,
	}
	// The acceptance driver's checkout is not a git repository; "unknown"
	// is the honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		b.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				b.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return b
}

// sameBox reports whether two results were measured alike, and if not, how
// they differ.
func sameBox(a, b box) (bool, string) {
	a.Commit, b.Commit = "", ""
	if a == b {
		return true, ""
	}
	return false, fmt.Sprintf("%+v\n  vs\n%+v", a, b)
}

// run is one invocation: one seed, every requested workload, one or two
// passes each.
type run struct {
	Seed      int64             `json:"seed"`
	Workloads []*workloadResult `json:"workloads"`
}

// resultFile is what -out writes and -compare reads. Repeating a command
// with the same -out appends a run, which is how a set of runs is collected.
type resultFile struct {
	Schema int   `json:"schema"`
	Box    box   `json:"box"`
	Runs   []run `json:"runs"`
}

const resultSchema = 1

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %d, this harness writes %d", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// appendRun adds r to the result file at path, creating it if need be. A file
// measured on a different box is refused, not mixed.
func appendRun(path string, b box, r run) error {
	f := &resultFile{Schema: resultSchema, Box: b}
	if old, err := readResultFile(path); err == nil {
		if ok, diff := sameBox(old.Box, b); !ok {
			return fmt.Errorf("%s was measured differently, not appending:\n%s", path, diff)
		}
		f = old
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, r)
	return writeJSON(path, f)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
