package httpd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image"
	"image/draw"
	"image/png"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// wireStub is a scriptable backend: it answers with fixed detections or a
// fixed error, optionally blocking on gate so tests can hold a request
// in flight.
type wireStub struct {
	dets []metrics.Detection
	err  error
	gate chan struct{} // when non-nil, calls block until closed (or ctx dies)

	mu      sync.Mutex
	conf    float64
	calls   int
	entered chan struct{}
	once    sync.Once
}

func (s *wireStub) Name() string { return "wire-stub" }

func (s *wireStub) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	s.mu.Lock()
	s.conf = conf
	s.calls++
	s.mu.Unlock()
	if s.entered != nil {
		s.once.Do(func() { close(s.entered) })
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return [][]metrics.Detection{s.dets}, nil
}

func (s *wireStub) lastConf() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conf
}

// testDets is a UPO above an AGO, in model-input coordinates.
func testDets() []metrics.Detection {
	return []metrics.Detection{
		{Class: dataset.ClassUPO, B: geom.BoxF{X: 10, Y: 20, W: 30, H: 15}, Score: 0.9},
		{Class: dataset.ClassAGO, B: geom.BoxF{X: 5, Y: 100, W: 80, H: 40}, Score: 0.8},
	}
}

// screenPNG renders a 96x160 screen (model-input size, so wire coordinates
// equal model coordinates) and returns its PNG bytes.
func screenPNG(t testing.TB) []byte {
	t.Helper()
	c := render.NewCanvas(96, 160)
	c.Fill(c.Bounds(), render.White)
	var buf bytes.Buffer
	if err := png.Encode(&buf, c.Image()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func detectBody(t *testing.T) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(DetectRequest{Screen: base64.StdEncoding.EncodeToString(screenPNG(t))})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func doDetect(t *testing.T, h http.Handler, hdr map[string]string, body *bytes.Reader) (*httptest.ResponseRecorder, DetectResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", body)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp DetectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("status %d: decoding body %q: %v", w.Code, w.Body.String(), err)
	}
	return w, resp
}

func TestDetectOKJSON(t *testing.T) {
	stub := &wireStub{dets: testDets()}
	s := New(Config{Backend: stub})

	w, resp := doDetect(t, s, map[string]string{HeaderTenant: "alice"}, detectBody(t))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %s)", w.Code, w.Body.String())
	}
	if resp.Tenant != "alice" || resp.Width != 96 || resp.Height != 160 {
		t.Fatalf("envelope = %q %dx%d, want alice 96x160", resp.Tenant, resp.Width, resp.Height)
	}
	if len(resp.Detections) != 2 || resp.Detections[0].Class != "UPO" || resp.Detections[1].Class != "AGO" {
		t.Fatalf("detections = %+v, want UPO then AGO", resp.Detections)
	}
	// Canvas is model-input sized, so wire boxes equal the stub's boxes.
	if b := resp.Detections[0].Box; b != (Box{X: 10, Y: 20, W: 30, H: 15}) {
		t.Fatalf("UPO box = %+v", b)
	}
	if len(resp.Decorations) != 2 {
		t.Fatalf("decorations = %+v, want 2", resp.Decorations)
	}
	upo := resp.Decorations[0]
	if upo.Color != "#16a34a" || upo.Stroke != 3 {
		t.Fatalf("UPO decoration = %+v, want green stroke 3", upo)
	}
	// Frame is the detection box inset outward by the stroke width.
	if upo.Frame != (Box{X: 7, Y: 17, W: 36, H: 21}) {
		t.Fatalf("UPO frame = %+v, want box inset by -3", upo.Frame)
	}
	if resp.Decorations[1].Color != "#dc2626" {
		t.Fatalf("AGO decoration = %+v, want red", resp.Decorations[1])
	}
	if len(resp.Bypass) != 1 || resp.Bypass[0] != (Box{X: 10, Y: 20, W: 30, H: 15}) {
		t.Fatalf("bypass = %+v, want the single UPO box", resp.Bypass)
	}
	if resp.Degraded || resp.Error != "" {
		t.Fatalf("degraded/error set on a clean 200: %+v", resp)
	}
}

func TestDetectRawPNGWithConfQuery(t *testing.T) {
	stub := &wireStub{dets: testDets()}
	s := New(Config{Backend: stub})

	req := httptest.NewRequest(http.MethodPost, "/v1/detect?conf=0.3", bytes.NewReader(screenPNG(t)))
	req.Header.Set("Content-Type", "image/png")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", w.Code, w.Body.String())
	}
	if got := stub.lastConf(); got != 0.3 {
		t.Fatalf("backend saw conf %v, want 0.3 from query param", got)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/detect?conf=2", bytes.NewReader(screenPNG(t)))
	req.Header.Set("Content-Type", "image/png")
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range conf: status = %d, want 400", w.Code)
	}
}

func TestDetectBadRequests(t *testing.T) {
	s := New(Config{Backend: &wireStub{}})
	cases := []struct {
		name string
		body string
	}{
		{"bad JSON", "{"},
		{"missing screen", "{}"},
		{"bad base64", `{"screen":"!!!"}`},
		{"not a PNG", `{"screen":"` + base64.StdEncoding.EncodeToString([]byte("nope")) + `"}`},
	}
	// conf outside (0, 1) is refused on the JSON body as on ?conf=.
	screen := base64.StdEncoding.EncodeToString(screenPNG(t))
	for _, conf := range []string{"2", "1", "0", "-0.5"} {
		cases = append(cases, struct{ name, body string }{"conf " + conf, `{"screen":"` + screen + `","conf":` + conf + `}`})
	}
	for _, tc := range cases {
		w, resp := doDetect(t, s, nil, bytes.NewReader([]byte(tc.body)))
		if w.Code != http.StatusBadRequest || resp.Error == "" {
			t.Errorf("%s: status = %d error %q, want 400 with error", tc.name, w.Code, resp.Error)
		}
	}

	// In range it is used; omitted, the server default stands.
	stub := &wireStub{dets: testDets()}
	s = New(Config{Backend: stub})
	for body, want := range map[string]float64{
		`{"screen":"` + screen + `","conf":0.3}`: 0.3,
		`{"screen":"` + screen + `"}`:            yolite.DefaultConfThresh,
	} {
		if w, _ := doDetect(t, s, nil, bytes.NewReader([]byte(body))); w.Code != http.StatusOK || stub.lastConf() != want {
			t.Errorf("status %d, backend saw conf %v, want 200 and %v", w.Code, stub.lastConf(), want)
		}
	}
	s = New(Config{Backend: &wireStub{}})

	req := httptest.NewRequest(http.MethodGet, "/v1/detect", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status = %d, want 405", w.Code)
	}
}

func TestDetectBodyLimit(t *testing.T) {
	s := New(Config{Backend: &wireStub{dets: testDets()}})
	body := make([]byte, DefaultMaxBodyBytes+1)
	copy(body, screenPNG(t))
	w, resp := doDetect(t, s, map[string]string{"Content-Type": "image/png"}, bytes.NewReader(body))
	if w.Code != http.StatusBadRequest || !strings.Contains(resp.Error, "exceeds") {
		t.Fatalf("oversized screen: status = %d error %q, want 400 naming the limit", w.Code, resp.Error)
	}
}

func TestDetectRateLimited(t *testing.T) {
	s := New(Config{Backend: &wireStub{err: serve.ErrRateLimited}})
	w, resp := doDetect(t, s, map[string]string{"Authorization": "Bearer acme"}, detectBody(t))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp.Error == "" || resp.Tenant != string(serve.DefaultTenant) {
		t.Fatalf("body = %+v, want error and the bearer token not echoed", resp)
	}
	if got := s.statsPayload(); got.RateLimited != 1 || got.Served != 0 {
		t.Fatalf("counters = %+v, want rate_limited 1", got)
	}
}

// TestDetectShedBare: a shed request gets what a rate-limited one gets — a
// 503 with Retry-After and an error, and nothing to decorate or click — and
// publishes no decoration event; the next admitted request is served as
// usual.
func TestDetectShedBare(t *testing.T) {
	backend := &wireStub{dets: testDets(), err: serve.ErrOverloaded}
	s := New(Config{Backend: backend})
	sub := s.bcast.subscribe()
	w, resp := doDetect(t, s, nil, detectBody(t))
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" || resp.Error == "" {
		t.Fatalf("status %d, Retry-After %q, error %q: want 503, 1 and an error", w.Code, w.Header().Get("Retry-After"), resp.Error)
	}
	if len(resp.Detections) != 0 || len(resp.Decorations) != 0 || len(resp.Bypass) != 0 || resp.Degraded {
		t.Fatalf("shed body = %+v, want no detections, decorations or bypass targets", resp)
	}
	if n := len(sub.ch); n != 0 {
		t.Fatalf("a shed request published %d events, want none", n)
	}
	if got := s.statsPayload(); got.Overloaded != 1 || got.Served != 0 {
		t.Fatalf("counters = %+v, want overloaded 1", got)
	}

	backend.err = nil
	w, resp = doDetect(t, s, nil, detectBody(t))
	if w.Code != http.StatusOK || len(resp.Detections) != len(testDets()) {
		t.Fatalf("after a shed: status %d body %+v, want a 200 with detections", w.Code, resp)
	}
	if ev := <-sub.ch; ev.name != "decoration" {
		t.Fatalf("event after the 200 = %q, want decoration", ev.name)
	}
}

// TestDetectClosedMapsToDraining: a request that reaches a serving stack
// already Closed is refused with serve.ErrClosed, which the front end
// answers 503 "draining" with Retry-After; the backend never runs.
func TestDetectClosedMapsToDraining(t *testing.T) {
	stub := &wireStub{dets: testDets()}
	b := serve.NewReplicated(serve.Options{}, stub)
	b.Close()
	s := New(Config{Backend: b, Stats: b.Stats})
	w, resp := doDetect(t, s, nil, detectBody(t))
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(resp.Error, "draining") || w.Header().Get("Retry-After") == "" {
		t.Fatalf("status %d error %q Retry-After %q, want 503 draining with Retry-After", w.Code, resp.Error, w.Header().Get("Retry-After"))
	}
	if stub.calls != 0 || len(resp.Detections) != 0 {
		t.Fatalf("closed stack ran the backend %d times and answered %v", stub.calls, resp.Detections)
	}
}

func TestTenantFromRequest(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", nil)
	if info, shown := tenantFromRequest(req); info.ID != serve.DefaultTenant || info.Priority != serve.PriorityLive || shown != string(serve.DefaultTenant) {
		t.Fatalf("bare request → %+v shown %q, want default tenant, live priority", info, shown)
	}
	req.Header.Set("Authorization", "Bearer tok123")
	if info, shown := tenantFromRequest(req); info.ID != "tok123" || shown != string(serve.DefaultTenant) {
		t.Fatalf("bearer token → %+v shown %q, want the token as lookup key only", info, shown)
	}
	req.Header.Set(HeaderTenant, "named")
	req.Header.Set(HeaderPriority, "Batch")
	info, shown := tenantFromRequest(req)
	if info.ID != "named" || info.Priority != serve.PriorityBatch || shown != "named" {
		t.Fatalf("headers → %+v shown %q, want named/batch (tenant header outranks bearer)", info, shown)
	}
}

func TestStatsEndpoint(t *testing.T) {
	fixed := serve.Stats{Offered: 10, Admitted: 7, Shed: 2, Rejected: 1, Batches: 4, Items: 7}
	rec := &perfmodel.Timings{}
	rec.Observe("serve-batch", 10*time.Millisecond)
	s := New(Config{
		Backend: &wireStub{dets: testDets()},
		Stats:   func() serve.Stats { return fixed },
		Timings: rec,
	})
	if w, _ := doDetect(t, s, nil, detectBody(t)); w.Code != http.StatusOK {
		t.Fatalf("detect status = %d", w.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	var p StatsPayload
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Offered != 10 || p.Admitted != 7 || p.Shed != 2 || p.Rejected != 1 {
		t.Fatalf("ledger = %+v, want the serve.Stats snapshot", p)
	}
	if p.Served != 1 {
		t.Fatalf("served = %d, want 1", p.Served)
	}
	st, ok := p.Stages["serve-batch"]
	if !ok || st.Count != 1 || st.P50US != 10000 {
		t.Fatalf("stages = %+v, want serve-batch p50 10ms", p.Stages)
	}
}

func TestBroadcasterDropsSlowClient(t *testing.T) {
	b := newBroadcaster()
	sub := b.subscribe()
	if sub == nil {
		t.Fatal("subscribe returned nil on an open broadcaster")
	}
	for i := 0; i < clientBuffer+3; i++ {
		if seq := b.publish("decoration", map[string]int{"i": i}); seq == 0 {
			t.Fatalf("publish %d returned 0", i)
		}
	}
	subs, dropped := b.counts()
	if subs != 1 || dropped != 3 {
		t.Fatalf("counts = %d subs %d dropped, want 1/3 (buffer %d, %d events)", subs, dropped, clientBuffer, clientBuffer+3)
	}
	if sub.drops() != 3 {
		t.Fatalf("sub.drops() = %d, want 3", sub.drops())
	}
	// The two buffered events are the oldest ones, ids intact.
	ev := <-sub.ch
	if ev.id != 1 || ev.name != "decoration" {
		t.Fatalf("first buffered event = %+v", ev)
	}
	if ev = <-sub.ch; ev.id != 2 {
		t.Fatalf("second buffered event = %+v", ev)
	}

	b.close()
	for i := 2; i < clientBuffer; i++ {
		<-sub.ch // the rest of the buffer
	}
	if _, ok := <-sub.ch; ok {
		t.Fatal("subscriber channel still open after close")
	}
	if b.subscribe() != nil {
		t.Fatal("subscribe succeeded after close")
	}
	if b.publish("decoration", 1) != 0 {
		t.Fatal("publish succeeded after close")
	}
	b.close() // idempotent
}

// sseClient scans an SSE response body into a line channel.
func sseClient(t *testing.T, base string) (lines <-chan string, closed <-chan struct{}, cancel func()) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		res.Body.Close()
		stop()
		t.Fatalf("events status = %d", res.StatusCode)
	}
	ch := make(chan string, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer res.Body.Close()
		sc := bufio.NewScanner(res.Body)
		for sc.Scan() {
			select {
			case ch <- sc.Text():
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, done, stop
}

// waitLine reads lines until match returns true or the deadline passes.
func waitLine(t *testing.T, lines <-chan string, what string, match func(string) bool) string {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case l := <-lines:
			if match(l) {
				return l
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestSSEStreamLifecycle(t *testing.T) {
	stub := &wireStub{dets: testDets()}
	api := New(Config{
		Backend:       stub,
		Heartbeat:     30 * time.Millisecond,
		StatsInterval: 40 * time.Millisecond,
	})
	ts := httptest.NewServer(api)
	defer ts.Close()

	lines, closed, cancel := sseClient(t, ts.URL)
	defer cancel()

	// Wait for the subscription to register before posting, so the
	// decoration event cannot race past us.
	for i := 0; ; i++ {
		if n, _ := api.bcast.counts(); n == 1 {
			break
		}
		if i > 100 {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}

	res, err := http.Post(ts.URL+"/v1/detect", "image/png", bytes.NewReader(screenPNG(t)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d", res.StatusCode)
	}

	waitLine(t, lines, "decoration event", func(l string) bool { return l == "event: decoration" })
	data := waitLine(t, lines, "decoration data", func(l string) bool { return strings.HasPrefix(l, "data: ") })
	var ev DecorationEvent
	if err := json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &ev); err != nil {
		t.Fatalf("decoding event payload: %v", err)
	}
	if len(ev.Detections) != 2 || len(ev.Decorations) != 2 {
		t.Fatalf("event payload = %+v, want the served decisions", ev)
	}
	waitLine(t, lines, "heartbeat", func(l string) bool { return strings.HasPrefix(l, ": hb") })
	waitLine(t, lines, "stats frame", func(l string) bool { return l == "event: stats" })

	// Drain: the open stream must end and new subscriptions must be refused.
	api.BeginDrain()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open after BeginDrain")
	}
	res, err = http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain subscribe status = %d, want 503", res.StatusCode)
	}
}

func TestSSEClientDisconnectUnsubscribes(t *testing.T) {
	api := New(Config{Backend: &wireStub{}, Heartbeat: 20 * time.Millisecond})
	ts := httptest.NewServer(api)
	defer ts.Close()

	_, closed, cancel := sseClient(t, ts.URL)
	for i := 0; ; i++ {
		if n, _ := api.bcast.counts(); n == 1 {
			break
		}
		if i > 100 {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-closed
	for i := 0; ; i++ {
		if n, _ := api.bcast.counts(); n == 0 {
			return
		}
		if i > 100 {
			t.Fatal("handler never unsubscribed after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGracefulDrainLetsInFlightFinish(t *testing.T) {
	stub := &wireStub{
		dets:    testDets(),
		gate:    make(chan struct{}),
		entered: make(chan struct{}),
	}
	api := New(Config{Backend: stub})
	ts := httptest.NewServer(api)
	defer ts.Close()

	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		res, err := http.Post(ts.URL+"/v1/detect", "image/png", bytes.NewReader(screenPNG(t)))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		res.Body.Close()
		inflight <- result{status: res.StatusCode}
	}()

	select {
	case <-stub.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached the backend")
	}
	api.BeginDrain()
	if !api.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}

	// New work is refused while the old request is still running.
	res, err := http.Post(ts.URL+"/v1/detect", "image/png", bytes.NewReader(screenPNG(t)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("detect during drain: status = %d, want 503", res.StatusCode)
	}
	if res, err = http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status = %d, want 503", res.StatusCode)
	}

	// The request admitted before the drain still completes normally.
	close(stub.gate)
	select {
	case r := <-inflight:
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("in-flight request finished %d/%v, want 200", r.status, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never finished")
	}
}

// TestServedEqualsInProcess is the differential test the front end's claim
// implies: the checked-in yolite weights behind the real serving stack answer
// POST /v1/detect — as JSON+base64 and as a raw PNG body — with exactly what
// detect.PredictCanvas computes in-process on the full-size canvas. The
// server decodes straight to the model's size (render.DecodePNG), so this
// covers each kind it handles: RGB screens at 192x320 and pixel-doubled to
// 384x640 (streamed through one and two 2:1 passes), a translucent RGBA
// screen (streamed), and a grey one (handed to image/png). The scheduler
// hand-off and the wire encoding may not move a box; a score may move by
// what JSON float formatting can.
func TestServedEqualsInProcess(t *testing.T) {
	reps, err := detect.BuildReplicas("yolite", detect.BuildContext{WeightsDir: "../../weights"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	local := reps[1]
	b := serve.NewReplicated(serve.Options{}, reps[0])
	defer b.Close()
	ts := httptest.NewServer(New(Config{Backend: b}))
	defer ts.Close()

	// 192x320 is the generator's native layout, so the server downscales.
	type screenCase struct {
		name string
		img  image.Image
	}
	var cases []screenCase
	for i, s := range auigen.BuildAUISamples(22, 8, auigen.DatasetConfig{InputW: 192, InputH: 320}) {
		cases = append(cases, screenCase{fmt.Sprintf("screen %d", i), s.Input.Image()})
		if i%4 != 0 {
			continue
		}
		cases = append(cases, screenCase{fmt.Sprintf("screen %d 384x640", i), pixelDouble(s.Input).Image()})
		translucent := s.Input.Clone()
		for p := 3; p < len(translucent.Pix); p += 4 * 7 {
			translucent.Pix[p] = uint8(p)
		}
		cases = append(cases, screenCase{fmt.Sprintf("screen %d translucent", i), translucent.Image()})
		grey := image.NewGray(image.Rect(0, 0, s.Input.W, s.Input.H))
		draw.Draw(grey, grey.Rect, s.Input.Image(), image.Point{}, draw.Src)
		cases = append(cases, screenCase{fmt.Sprintf("screen %d grey", i), grey})
	}
	fired := 0
	for _, sc := range cases {
		full := render.FromImage(sc.img)
		want := detect.PredictCanvas(local, full, yolite.DefaultConfThresh)
		fired += len(want)
		var buf bytes.Buffer
		if err := png.Encode(&buf, sc.img); err != nil {
			t.Fatal(err)
		}
		for _, body := range screenBodies(buf.Bytes()) {
			res, err := ts.Client().Post(ts.URL+"/v1/detect", body.ctype, bytes.NewReader(body.body))
			if err != nil {
				t.Fatal(err)
			}
			var got DetectResponse
			err = json.NewDecoder(res.Body).Decode(&got)
			res.Body.Close()
			if err != nil || res.StatusCode != http.StatusOK {
				t.Fatalf("%s as %s: status %d, decode error %v", sc.name, body.ctype, res.StatusCode, err)
			}
			if got.Width != full.W || got.Height != full.H || len(got.Detections) != len(want) {
				t.Fatalf("%s as %s: %dx%d with %d detections, want %dx%d with %d",
					sc.name, body.ctype, got.Width, got.Height, len(got.Detections), full.W, full.H, len(want))
			}
			for j, d := range got.Detections {
				w := want[j]
				if d.Class != className(w.Class) || d.Box != toWireBox(w) || math.Abs(d.Score-w.Score) > 1e-6 {
					t.Errorf("%s as %s, detection %d: served %+v, in-process %+v", sc.name, body.ctype, j, d, w)
				}
			}
		}
	}
	if fired == 0 {
		t.Fatal("the model fired on none of the screens; the comparison is vacuous")
	}
}

// gatedDetector passes calls to its detector until shut, then holds each
// call until reopened, signalling entered as a call starts to wait.
type gatedDetector struct {
	detect.Detector
	entered chan struct{}

	mu   sync.Mutex
	gate chan struct{} // nil while open
}

func (g *gatedDetector) shut() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedDetector) open() {
	g.mu.Lock()
	close(g.gate)
	g.gate = nil
	g.mu.Unlock()
}

func (g *gatedDetector) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		g.entered <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.Detector.PredictBatchCtx(ctx, x, conf)
}

// spinUntil yields until cond holds, failing the test after ten seconds.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestRealAdmissionVerdictsOverHTTP maps the serving stack's own verdicts,
// not stubbed errors, onto HTTP: the checked-in yolite behind a real
// Batcher answers 200 with detections, a tenant past its bucket gets 429
// with Retry-After, a request finding the queue at depth gets a bare 503
// that publishes no decoration, the 200's decoration reaches an SSE
// subscriber, and /healthz turns 503 once draining.
func TestRealAdmissionVerdictsOverHTTP(t *testing.T) {
	model, err := detect.Build("yolite", detect.BuildContext{WeightsDir: "../../weights"})
	if err != nil {
		t.Fatal(err)
	}
	var screen []byte
	for _, s := range auigen.BuildAUISamples(22, 8, auigen.DatasetConfig{}) {
		if dets, err := detect.PredictCanvasCtx(context.Background(), model, s.Input, s.Input.W, s.Input.H, yolite.DefaultConfThresh); err == nil && len(dets) > 0 {
			var buf bytes.Buffer
			if err := png.Encode(&buf, s.Input.Image()); err != nil {
				t.Fatal(err)
			}
			screen = buf.Bytes()
			break
		}
	}
	if screen == nil {
		t.Fatal("the model fired on none of eight AUI screens")
	}

	gated := &gatedDetector{Detector: model, entered: make(chan struct{}, 1)}
	b := serve.NewReplicated(serve.Options{
		Tenants:       map[serve.TenantID]serve.TenantConfig{"tenant0": {Rate: 1e-9}},
		MaxQueueDepth: 1,
	}, gated)
	defer b.Close()
	api := New(Config{Backend: b, Stats: b.Stats})
	ts := httptest.NewServer(api)
	defer ts.Close()
	lines, _, cancel := sseClient(t, ts.URL)
	defer cancel()
	events := api.bcast.subscribe() // counts every event published

	type reply struct {
		status int
		header http.Header
		body   DetectResponse
		err    error
	}
	post := func(tenant string) <-chan reply {
		out := make(chan reply, 1)
		go func() {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(screen))
			if err != nil {
				out <- reply{err: err}
				return
			}
			req.Header.Set("Content-Type", "image/png")
			if tenant != "" {
				req.Header.Set(HeaderTenant, tenant)
			}
			res, err := ts.Client().Do(req)
			if err != nil {
				out <- reply{err: err}
				return
			}
			defer res.Body.Close()
			r := reply{status: res.StatusCode, header: res.Header}
			r.err = json.NewDecoder(res.Body).Decode(&r.body)
			out <- r
		}()
		return out
	}
	answer := func(what string, c <-chan reply, status int) reply {
		t.Helper()
		r := <-c
		if r.err != nil || r.status != status {
			t.Fatalf("%s: status %d, error %v; want %d", what, r.status, r.err, status)
		}
		return r
	}

	if r := answer("tenant0's first request", post("tenant0"), http.StatusOK); len(r.body.Detections) == 0 {
		t.Fatal("a 200 without detections for a screen the model fires on")
	}
	waitLine(t, lines, "decoration event", func(l string) bool { return l == "event: decoration" })
	if r := answer("tenant0 past its bucket", post("tenant0"), http.StatusTooManyRequests); r.header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Hold the one replica on a forward and queue one request behind it: the
	// queue is then at MaxQueueDepth.
	gated.shut()
	backlog := []<-chan reply{post("")}
	<-gated.entered
	backlog = append(backlog, post(""))
	admitted := 3
	spinUntil(t, "the backlog to be admitted", func() bool { return b.Stats().Admitted == admitted })

	// The next request is shed. One admitted in the
	// instant between an earlier verdict and its enqueue joins the backlog
	// instead, and the one after it is shed.
	var shed *reply
	for ; shed == nil; admitted++ {
		probe := post("")
		for shed == nil && b.Stats().Admitted == admitted {
			select {
			case r := <-probe:
				shed = &r
			default:
				runtime.Gosched()
			}
		}
		if shed == nil {
			backlog = append(backlog, probe)
		}
	}
	if shed.err != nil || shed.status != http.StatusServiceUnavailable || shed.header.Get("Retry-After") != "1" || shed.body.Error == "" {
		t.Fatalf("request at full depth: status %d, Retry-After %q, body %+v, err %v; want a 503 with Retry-After 1 and an error",
			shed.status, shed.header.Get("Retry-After"), shed.body, shed.err)
	}
	if bd := shed.body; len(bd.Detections) != 0 || len(bd.Decorations) != 0 || len(bd.Bypass) != 0 || bd.Degraded {
		t.Fatalf("shed body = %+v, want no detections, decorations or bypass targets", bd)
	}
	if n := len(events.ch); n != 1 {
		t.Fatalf("%d events published by the 200, the 429 and the shed 503, want the 200's one decoration", n)
	}
	gated.open()
	for i, c := range backlog {
		answer(fmt.Sprintf("backlog request %d", i), c, http.StatusOK)
	}

	api.BeginDrain()
	res, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after BeginDrain: status %d, want 503", res.StatusCode)
	}
}
