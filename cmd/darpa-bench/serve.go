package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/httpd"
	"repro/internal/metrics"
)

// Client counts of the two serve phases. Load comes from this one process
// over at most min(nproc, 2) connections: one for latency, two to saturate
// the single replica.
const (
	latClients = 1
	satClients = 2
)

// serveSpec is what distinguishes the two serve workloads: the resolution
// screens arrive at and which of the endpoint's two body paths carries them.
type serveSpec struct {
	res      resolution
	jsonBody bool // base64 PNG in a JSON body; otherwise a raw image/png body
}

var serveSpecs = map[string]serveSpec{
	"serve-lowres": {res: resModel, jsonBody: true},
	"serve-hires":  {res: resHires, jsonBody: false},
}

// httpLoad is the load generator's view of one serve workload: the encoded
// request bodies and, per screen, the answer the server must give.
type httpLoad struct {
	url         string
	contentType string
	client      *http.Client
	corpus      []screen
	bodies      [][]byte
	want        [][]metrics.Detection // in-process reference, per screen
	pngs        [][]byte              // kept for the traced pass
	corpusS     float64               // what building all of the above cost

	served atomic.Int64 // correct 200s so far
	mu     sync.Mutex
	seen   []bool // screens answered correctly at least once
}

// newHTTPLoad renders and encodes the corpus and computes the reference.
func newHTTPLoad(spec serveSpec, seed int64, sz sizing) (*httpLoad, error) {
	t0 := time.Now()
	corpus, err := buildCorpus(seed, spec.res, sz.corpusAUI, sz.corpusBenign)
	if err != nil {
		return nil, err
	}
	pngs, err := encodePNGs(corpus)
	if err != nil {
		return nil, err
	}
	if err := checkPNGRoundTrip(corpus, pngs, 8); err != nil {
		return nil, err
	}
	l := &httpLoad{corpus: corpus, pngs: pngs, bodies: pngs, contentType: "image/png", seen: make([]bool, len(corpus))}
	if spec.jsonBody {
		l.contentType = "application/json"
		if l.bodies, err = jsonBodies(pngs); err != nil {
			return nil, err
		}
	}
	model, err := buildFloat()
	if err != nil {
		return nil, err
	}
	l.want = reference(model, corpus)
	// One connection per client, kept alive; nothing else tuned.
	l.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: satClients, DisableCompression: true}}
	l.corpusS = time.Since(t0).Seconds()
	return l, nil
}

// post sends screen i and returns the caller-visible latency (send to body
// fully read). The correctness check runs after the clock stops.
func (l *httpLoad) post(ctx context.Context, i int) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.url, bytes.NewReader(l.bodies[i]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", l.contentType)
	t0 := time.Now()
	res, err := l.client.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if res.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("screen %d: status %d: %.200s", i, res.StatusCode, body)
	}
	if err := l.check(i, body); err != nil {
		return 0, err
	}
	return lat, nil
}

// check holds one 200 body against the in-process reference: class and box
// exactly, score within 1e-6, the screen's own size, one decoration per
// detection.
func (l *httpLoad) check(i int, body []byte) error {
	var resp httpd.DetectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("screen %d: decoding body: %w", i, err)
	}
	got := make([]metrics.Detection, len(resp.Detections))
	for j, d := range resp.Detections {
		cls := dataset.ClassAGO
		switch d.Class {
		case "AGO":
		case "UPO":
			cls = dataset.ClassUPO
		default:
			return fmt.Errorf("screen %d: unknown class %q", i, d.Class)
		}
		got[j] = metrics.Detection{Class: cls, Score: d.Score}
		got[j].B.X, got[j].B.Y, got[j].B.W, got[j].B.H = d.Box.X, d.Box.Y, d.Box.W, d.Box.H
	}
	c := l.corpus[i].canvas
	switch {
	case !sameDetections(got, l.want[i]):
		return fmt.Errorf("screen %d: served %v, in-process reference %v", i, got, l.want[i])
	case resp.Width != c.W || resp.Height != c.H:
		return fmt.Errorf("screen %d: served size %dx%d, sent %dx%d", i, resp.Width, resp.Height, c.W, c.H)
	case len(resp.Decorations) != len(resp.Detections):
		return fmt.Errorf("screen %d: %d decorations for %d detections", i, len(resp.Decorations), len(resp.Detections))
	case resp.Degraded || resp.Error != "":
		return fmt.Errorf("screen %d: degraded=%v error=%q on a 200", i, resp.Degraded, resp.Error)
	}
	l.served.Add(1)
	l.mu.Lock()
	l.seen[i] = true
	l.mu.Unlock()
	return nil
}

// opResult is one operation of a closed loop.
type opResult struct {
	end time.Duration // completion, from the start of the phase
	lat time.Duration
	err error
}

// phase is what one closed-loop phase measured.
type phase struct {
	name      string
	start     time.Time
	ops       []opResult // completion order
	wall      time.Duration
	attempted int
	failed    int
	failures  []string // the first few, for the report
}

// closedLoop runs clients goroutines for dur; each sends its next operation
// only when its previous one has completed. next hands out the operation
// index. An operation in flight at the deadline completes and is counted.
// The first client also takes a usage reading at the start, once a window,
// and at the end.
func closedLoop(ctx context.Context, name string, clients int, dur time.Duration, use *usageLog, next func() int, do func(ctx context.Context, i int) (time.Duration, error)) phase {
	per := make([][]opResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastRead := start
			if c == 0 {
				use.read()
			}
			for time.Since(start) < dur && ctx.Err() == nil {
				lat, err := do(ctx, next())
				per[c] = append(per[c], opResult{end: time.Since(start), lat: lat, err: err})
				if c == 0 && time.Since(lastRead) >= window {
					use.read()
					lastRead = time.Now()
				}
			}
			if c == 0 {
				use.read()
			}
		}(c)
	}
	wg.Wait()
	p := phase{name: name, start: start, wall: time.Since(start)}
	for _, ops := range per {
		p.ops = append(p.ops, ops...)
	}
	sort.Slice(p.ops, func(i, j int) bool { return p.ops[i].end < p.ops[j].end })
	for _, op := range p.ops {
		p.attempted++
		if op.err != nil {
			p.failed++
			if len(p.failures) < 3 {
				p.failures = append(p.failures, op.err.Error())
			}
		}
	}
	return p
}

// latenciesMS returns the successful operations' latencies in completion
// order.
func (p phase) latenciesMS() []float64 {
	out := make([]float64, 0, len(p.ops))
	for _, op := range p.ops {
		if op.err == nil {
			out = append(out, ms(op.lat))
		}
	}
	return out
}

// ok counts successful operations.
func (p phase) ok() int { return p.attempted - p.failed }

// windows returns the usage windows of the phase, each with the latencies of
// the successful operations that completed in it. The partial window at the
// deadline, stragglers included, is not among them.
func (p phase) windows(use *usageLog) ([]usageWindow, error) {
	ws, err := use.windows()
	if err != nil {
		return nil, err
	}
	i := 0
	for _, op := range p.ops {
		at := p.start.Add(op.end)
		for i < len(ws) && at.After(ws[i].to) {
			i++
		}
		if i == len(ws) {
			break
		}
		if op.err == nil && at.After(ws[i].from) {
			ws[i].latMS = append(ws[i].latMS, ms(op.lat))
		}
	}
	return ws, nil
}

func p50(w usageWindow) float64 { return median(w.latMS) }
func p95(w usageWindow) float64 { return percentile(sorted(w.latMS), 95) }

// setUpServer measures program set-up — launch, first 200 on /healthz, the
// fixed warm-up answered — reps times, and leaves the last server running.
func setUpServer(ctx context.Context, bin string, l *httpLoad, sz sizing, counter *atomic.Int64) (*server, []float64, error) {
	var times []float64
	for rep := 0; ; rep++ {
		t0 := time.Now()
		srv, err := startServer(bin)
		if err != nil {
			return nil, nil, err
		}
		l.url = srv.base + "/v1/detect"
		for w := 0; w < sz.warmup; w++ {
			if _, err := l.post(ctx, int(counter.Add(1)-1)%len(l.corpus)); err != nil {
				srv.kill()
				return nil, nil, fmt.Errorf("warm-up request %d: %w\n%s", w, err, srv.takeLog())
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == sz.setupReps-1 {
			return srv, times, nil
		}
		if err := srv.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// runServe is the untraced pass of serve-lowres and serve-hires: a latency
// phase at one client, then a throughput phase at two, against the real
// darpa-serve binary over loopback HTTP.
func runServe(ctx context.Context, name string, env runEnv) (*workloadResult, error) {
	res := newWorkloadResult(name, env)
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	l, err := newHTTPLoad(serveSpecs[name], env.seed, env.sz)
	if err != nil {
		return nil, err
	}
	var counter atomic.Int64
	next := func() int { return int(counter.Add(1)-1) % len(l.corpus) }

	srv, setups, err := setUpServer(ctx, bin, l, env.sz, &counter)
	if err != nil {
		return nil, err
	}
	defer srv.kill() // a no-op once stop has succeeded

	half := time.Duration(env.seconds / 2 * float64(time.Second))
	served := func() int { return int(l.served.Load()) }
	latUse, satUse := &usageLog{pid: srv.pid(), ops: served}, &usageLog{pid: srv.pid(), ops: served}
	lat := closedLoop(ctx, "lat", latClients, half, latUse, next, l.post)
	sat := closedLoop(ctx, "sat", satClients, half, satUse, next, l.post)
	rss, err := procPeakRSSMiB(srv.pid())
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.addPhase(lat)
	res.addPhase(sat)
	if lat.ok() == 0 || sat.ok() == 0 {
		res.fail("no successful request in a phase")
		return res, nil
	}
	latW, err := lat.windows(latUse)
	if err != nil {
		return nil, err
	}
	satW, err := satUse.windows()
	if err != nil {
		return nil, err
	}
	recall, screens := recallIoU50(l.corpus, l.want, l.seen)
	rps := atZeroSteal(satW, usageWindow.rate, false)

	res.set("setup_s", median(setups))
	res.set("detect_p50_ms", atZeroSteal(latW, p50, true))
	res.set("detect_rps", rps)
	// CPU per request differs between one client and two (a batch of two
	// shares a forward), so each phase gives its own figure; the metric is
	// their mean.
	res.set("cpu_ms_per_op", (atZeroSteal(latW, usageWindow.cpu, true)+atZeroSteal(satW, usageWindow.cpu, true))/2)
	res.set("peak_rss_mb", rss)
	res.set("recall_iou50", recall)
	res.aliasThroughput(rps)

	lats := lat.latenciesMS()
	res.note("bench.corpus_s", l.corpusS, "s")
	res.note("box.stolen_over_busy", stolenOverBusy(latW, satW), "share")
	res.note("detect_p95_ms", atZeroSteal(latW, p95, true), "ms") // not gated: see endToEnd
	res.note("lat.samples", float64(len(lats)), "count")
	if p, ok := highestPercentile(len(lats)); ok {
		res.note(fmt.Sprintf("lat.p%g_ms", p), percentile(sorted(lats), p), "ms")
	}
	res.note("sat.samples", float64(sat.ok()), "count")
	res.note("recall.screens", float64(screens), "count")
	return res, nil
}
