// Package httpd is the network front end over the layered serving stack:
// the paper deploys DARPA as an always-on detection service, and this
// package is what lets anything outside the process consume it. It exposes
//
//	POST /v1/detect  one screen in (base64 or raw PNG), detections and
//	                 decoration decisions out, admission verdicts mapped to
//	                 status codes (429 rate-limited, 503 shed/draining)
//	GET  /v1/events  an SSE stream of decoration decisions and periodic
//	                 fleet-stats frames, with heartbeats and per-client
//	                 drop-on-slow buffers
//	GET  /v1/stats   one JSON fleet snapshot
//	GET  /metrics    Prometheus text exposition (admission, scheduler,
//	                 replica health, stage latencies, HTTP/SSE counters)
//	GET  /healthz    readiness probe
//
// The handler chain is deliberately thin: tenant identity comes off the
// request headers onto serve.WithTenant, the screen rides
// detect.PredictCanvasCtx into whatever detect.Detector the server fronts
// (typically a serve.Batcher: admission → scheduler → replica pool), and the
// admission layer's verdicts come back as typed errors this package
// translates into HTTP semantics. A shed request gets what a rate-limited one
// gets: a bare error status with Retry-After and no detections, so
// decorations and bypass clicks only ever come from the full model.
package httpd

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/yolite"
)

// Tenant/priority request headers. An Authorization bearer token doubles as
// the tenant identity when X-Darpa-Tenant is absent, so existing token-based
// clients map onto admission without a second header. Either value is only a
// lookup key: admission gives an id outside the operator's tenant table no
// state and no metrics label of its own (serve.DefaultTenant accounts it).
// A token is a credential and is never echoed, broadcast or logged; an
// X-Darpa-Tenant value is a name and is.
const (
	HeaderTenant   = "X-Darpa-Tenant"
	HeaderPriority = "X-Darpa-Priority"
)

// Defaults for Config fields left zero, and the one bound on a detect
// request body.
const (
	DefaultHeartbeat     = 15 * time.Second
	DefaultStatsInterval = 5 * time.Second
	DefaultMaxBodyBytes  = 8 << 20
)

// clientBuffer is each SSE subscriber's event buffer; when it is full,
// further events are dropped for that client, never blocking the serving
// path.
const clientBuffer = 64

// maxScreenPixels is the largest width x height a screen's PNG header may
// declare (a 4096x4096 display; 64 MiB once decoded). A few hundred bytes
// can declare 30000x30000, so a larger claim is refused unread.
const maxScreenPixels = 1 << 24

// Config wires the server to the serving stack.
type Config struct {
	// Backend answers detection requests; typically a *serve.Batcher so
	// admission, scheduling and the replica pool sit behind every call.
	// Required.
	Backend detect.Detector
	// Stats, when non-nil, supplies the serving-layer snapshot (admission
	// ledger, per-replica health) for /v1/stats and the SSE stats frames.
	// Wire it to Batcher.Stats.
	Stats func() serve.Stats
	// Timings, when non-nil, contributes per-stage p50/p95/p99 to the stats
	// payloads. Share the recorder given to serve.Options.Timings.
	Timings *perfmodel.Timings
	// ConfThresh is the default confidence threshold when a request does
	// not set one. Zero means yolite.DefaultConfThresh.
	ConfThresh float64
	// Heartbeat is the SSE keep-alive comment interval. Zero means 15s.
	Heartbeat time.Duration
	// StatsInterval is how often each SSE subscriber receives a stats
	// frame. Zero means 5s; negative disables stats frames.
	StatsInterval time.Duration
	// Logf receives request-level diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) confThresh() float64 {
	if c.ConfThresh == 0 {
		return yolite.DefaultConfThresh
	}
	return c.ConfThresh
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat <= 0 {
		return DefaultHeartbeat
	}
	return c.Heartbeat
}

func (c Config) statsInterval() time.Duration {
	if c.StatsInterval == 0 {
		return DefaultStatsInterval
	}
	return c.StatsInterval
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Server is the HTTP front end. Create with New, mount as an http.Handler,
// and call BeginDrain when shutting down.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	bcast *broadcaster

	draining atomic.Bool

	// Request-outcome counters for the stats payloads.
	served      atomic.Int64 // 200s
	rateLimited atomic.Int64 // 429s
	overloaded  atomic.Int64 // 503s from shedding
}

// New builds the front end. Panics when cfg.Backend is nil — a detection
// service with nothing to detect with is a programming error.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("httpd: Config.Backend is required")
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		bcast: newBroadcaster(),
	}
	s.mux.HandleFunc("/v1/detect", s.handleDetect)
	s.mux.HandleFunc("/v1/events", s.handleEvents)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// BeginDrain starts graceful shutdown at the application layer: new detect
// requests are refused with 503, every SSE stream is closed so the HTTP
// server's connection drain can complete, and no new subscribers are
// accepted. The caller then shuts the http.Server down and finally closes
// the Batcher, which drains queued requests. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.bcast.close()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// DetectRequest is the POST /v1/detect JSON body. Alternatively the body may
// be a raw PNG (Content-Type: image/png) with the threshold in ?conf=.
type DetectRequest struct {
	// Screen is the base64 (standard encoding) PNG screenshot.
	Screen string `json:"screen"`
	// Conf overrides the server's confidence threshold; like ?conf= it must lie in (0, 1).
	Conf *float64 `json:"conf,omitempty"`
}

// Box is a detection rectangle in screen (canvas) coordinates.
type Box struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	W float64 `json:"w"`
	H float64 `json:"h"`
}

// Detection is one detected option on the wire.
type Detection struct {
	Class string  `json:"class"` // "AGO" or "UPO"
	Box   Box     `json:"box"`
	Score float64 `json:"score"`
}

// Decoration is one decoration decision: draw a Stroke-wide border of Color
// around Frame. Frames are in screen coordinates; remote consumers draw them
// as-is (the in-process service additionally applies anchor-view
// calibration, which needs the live window manager).
type Decoration struct {
	Class  string `json:"class"`
	Frame  Box    `json:"frame"`
	Color  string `json:"color"` // #rrggbb
	Stroke int    `json:"stroke"`
}

// DetectResponse is the POST /v1/detect reply. On any error status only
// Tenant and Error are set.
type DetectResponse struct {
	Detections  []Detection  `json:"detections"`
	Decorations []Decoration `json:"decorations"`
	// Bypass ranks the UPO regions an auto-bypass would click, best first
	// (the same top-3 rule the in-process service uses).
	Bypass []Box `json:"bypass,omitempty"`
	// Degraded is never set: every answer with detections comes from the
	// full model. The field stays so existing clients that read it decode.
	Degraded bool   `json:"degraded,omitempty"`
	Tenant   string `json:"tenant"`
	Width    int    `json:"width"`
	Height   int    `json:"height"`
	Error    string `json:"error,omitempty"`
}

// DecorationEvent is the SSE "decoration" event payload: the decisions just
// served to one detect call, so auditors watching the stream see every
// screen's verdict in real time.
type DecorationEvent struct {
	Tenant      string       `json:"tenant"`
	Width       int          `json:"width"`
	Height      int          `json:"height"`
	Detections  []Detection  `json:"detections"`
	Decorations []Decoration `json:"decorations"`
}

// StageStats is one pipeline stage's latency summary in a stats payload.
type StageStats struct {
	Count  int   `json:"count"`
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P95US  int64 `json:"p95_us"`
	P99US  int64 `json:"p99_us"`
	MaxUS  int64 `json:"max_us"`
}

// StatsPayload is the /v1/stats body and the SSE "stats" frame.
type StatsPayload struct {
	// Admission ledger (Offered == Admitted + Shed + Rejected) and
	// per-replica health, straight from serve.Stats.
	Offered  int                                  `json:"offered"`
	Admitted int                                  `json:"admitted"`
	Shed     int                                  `json:"shed"`
	Rejected int                                  `json:"rejected"`
	Tenants  map[serve.TenantID]serve.TenantStats `json:"tenants,omitempty"`
	Replicas []serve.ReplicaStats                 `json:"replicas,omitempty"`
	Batches  int                                  `json:"batches"`
	Items    int                                  `json:"items"`

	// HTTP-layer outcomes.
	Served      int64 `json:"served"`
	RateLimited int64 `json:"rate_limited"`
	Overloaded  int64 `json:"overloaded"`

	// SSE health.
	Subscribers int `json:"subscribers"`
	Dropped     int `json:"dropped_events"`

	// Stages maps perfmodel stage names to latency summaries.
	Stages map[string]StageStats `json:"stages,omitempty"`

	Draining bool `json:"draining,omitempty"`
}

// tenantFromRequest maps the auth/tenant headers onto the serving layer's
// identity: X-Darpa-Tenant (or the Authorization bearer token) names the
// tenant, X-Darpa-Priority asks for a scheduler tier. The Batcher's tenant
// table still outranks the priority claim, exactly as for in-process
// callers. shown is what responses, decoration events and logs may call the
// caller: the X-Darpa-Tenant name, and serve.DefaultTenant for a caller
// identified by its token or not at all.
func tenantFromRequest(r *http.Request) (info serve.TenantInfo, shown string) {
	info.ID, shown = serve.DefaultTenant, string(serve.DefaultTenant)
	if t := r.Header.Get(HeaderTenant); t != "" {
		info.ID, shown = serve.TenantID(t), t
	} else if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok && tok != "" {
		info.ID = serve.TenantID(tok)
	}
	if strings.EqualFold(r.Header.Get(HeaderPriority), "batch") {
		info.Priority = serve.PriorityBatch
	}
	return info, shown
}

// screen is a decoded request: pixels at the model's size, the screen's size, the threshold.
type screen struct {
	canvas *render.Canvas
	w, h   int
	conf   float64
}

// canvases recycles request canvases: one goes back once detect.PredictCanvasCtx returns.
var canvases = sync.Pool{New: func() any { return render.NewCanvas(yolite.InputW, yolite.InputH) }}

// readScreen decodes the request into a screen, on a canvas from canvases.
func (s *Server) readScreen(r *http.Request) (screen, error) {
	body := io.LimitReader(r.Body, DefaultMaxBodyBytes+1)
	var pngBytes []byte
	var req DetectRequest // req.Screen is set on the JSON path only
	if strings.HasPrefix(r.Header.Get("Content-Type"), "image/png") {
		raw, err := io.ReadAll(body)
		if err != nil {
			return screen{}, fmt.Errorf("reading body: %w", err)
		}
		pngBytes = raw
		if q := r.URL.Query().Get("conf"); q != "" {
			v, err := strconv.ParseFloat(q, 64)
			if err != nil {
				return screen{}, fmt.Errorf("invalid conf %q", q)
			}
			req.Conf = &v
		}
	} else {
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return screen{}, fmt.Errorf("decoding JSON: %w", err)
		}
		if req.Screen == "" {
			return screen{}, errors.New(`missing "screen"`)
		}
		raw, err := base64.StdEncoding.DecodeString(req.Screen)
		if err != nil {
			return screen{}, fmt.Errorf("decoding base64 screen: %w", err)
		}
		pngBytes = raw
	}
	sc := screen{conf: s.cfg.confThresh()}
	if c := req.Conf; c != nil && !(*c > 0 && *c < 1) { // NaN fails both
		return screen{}, fmt.Errorf("invalid conf %v: want 0 < conf < 1", *c)
	} else if c != nil {
		sc.conf = *c
	}
	if int64(len(pngBytes)) > DefaultMaxBodyBytes {
		return screen{}, fmt.Errorf("screen exceeds %d bytes", DefaultMaxBodyBytes)
	}
	// The header is read on its own first: decoding allocates by the size
	// IHDR declares before it has seen a single pixel.
	hdr, err := png.DecodeConfig(bytes.NewReader(pngBytes))
	if err != nil {
		return screen{}, fmt.Errorf("decoding PNG: %w", err)
	}
	if int64(hdr.Width)*int64(hdr.Height) > maxScreenPixels {
		return screen{}, fmt.Errorf("screen %dx%d exceeds %d pixels", hdr.Width, hdr.Height, maxScreenPixels)
	}
	sc.canvas = canvases.Get().(*render.Canvas)
	if sc.w, sc.h, err = render.DecodePNG(pngBytes, sc.canvas); err != nil {
		return screen{}, fmt.Errorf("decoding PNG: %w", err)
	}
	return sc, nil
}

// handleDetect is POST /v1/detect.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	info, tenant := tenantFromRequest(r)
	if s.draining.Load() {
		// ErrClosed semantics at the HTTP layer: the server is draining, so
		// refuse before touching the (closing) serving stack.
		s.writeError(w, http.StatusServiceUnavailable, tenant, "server draining", "1")
		return
	}
	sc, err := s.readScreen(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, tenant, err.Error(), "")
		return
	}
	ctx := serve.WithTenant(r.Context(), info)
	dets, err := detect.PredictCanvasCtx(ctx, s.cfg.Backend, sc.canvas, sc.w, sc.h, sc.conf)
	canvases.Put(sc.canvas)
	switch {
	case err == nil:
		s.served.Add(1)
		s.writeResult(w, tenant, sc, dets)
	case errors.Is(err, serve.ErrRateLimited):
		// The tenant outran its token bucket: terminal for this request,
		// and retrying immediately will fail again — hence Retry-After.
		s.rateLimited.Add(1)
		s.writeError(w, http.StatusTooManyRequests, tenant, err.Error(), "1")
	case errors.Is(err, serve.ErrOverloaded):
		// Shed for global queue depth: the full model never saw this
		// screen, so there is nothing to decorate or click.
		s.overloaded.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, tenant, err.Error(), "1")
	case errors.Is(err, serve.ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, tenant, "server draining", "1")
	case errors.Is(err, r.Context().Err()):
		// The client left (or its deadline passed) while we worked; there
		// is no one to answer. 499-style: log and drop.
		s.cfg.logf("httpd: client gone mid-detect (tenant %s): %v", tenant, err)
	default:
		s.cfg.logf("httpd: detect failed (tenant %s): %v", tenant, err)
		s.writeError(w, http.StatusInternalServerError, tenant, "detection failed", "")
	}
}

// writeResult renders a 200 detection body and publishes the matching SSE
// decoration event.
func (s *Server) writeResult(w http.ResponseWriter, tenant string, sc screen, dets []metrics.Detection) {
	resp := DetectResponse{
		Detections:  toWireDetections(dets),
		Decorations: planDecorations(dets),
		Bypass:      toWireBoxes(core.BypassTargets(dets)),
		Tenant:      tenant,
		Width:       sc.w,
		Height:      sc.h,
	}
	if len(dets) > 0 {
		s.bcast.publish("decoration", DecorationEvent{
			Tenant:      tenant,
			Width:       sc.w,
			Height:      sc.h,
			Detections:  resp.Detections,
			Decorations: resp.Decorations,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeError renders an error body, with Retry-After when the condition is
// transient.
func (s *Server) writeError(w http.ResponseWriter, status int, tenant string, msg, retryAfter string) {
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	writeJSON(w, status, DetectResponse{Tenant: tenant, Error: msg})
}

// planDecorations maps detections to wire decoration decisions using the
// same pure planner the in-process decorator executes, with the paper's
// default colours and stroke.
func planDecorations(dets []metrics.Detection) []Decoration {
	plan := core.PlanDecorations(dets, render.Color{}, render.Color{}, 0)
	out := make([]Decoration, 0, len(plan))
	for _, d := range plan {
		out = append(out, Decoration{
			Class:  className(d.Class),
			Frame:  Box{X: float64(d.Frame.X), Y: float64(d.Frame.Y), W: float64(d.Frame.W), H: float64(d.Frame.H)},
			Color:  fmt.Sprintf("#%02x%02x%02x", d.Color.R, d.Color.G, d.Color.B),
			Stroke: d.Stroke,
		})
	}
	return out
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload())
}

// handleHealth is GET /healthz: 200 while serving, 503 while draining, so
// load balancers stop routing before the drain finishes.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// statsPayload assembles one fleet snapshot.
func (s *Server) statsPayload() StatsPayload {
	p := StatsPayload{
		Served:      s.served.Load(),
		RateLimited: s.rateLimited.Load(),
		Overloaded:  s.overloaded.Load(),
		Draining:    s.draining.Load(),
	}
	p.Subscribers, p.Dropped = s.bcast.counts()
	if s.cfg.Stats != nil {
		st := s.cfg.Stats()
		p.Offered, p.Admitted, p.Shed, p.Rejected = st.Offered, st.Admitted, st.Shed, st.Rejected
		p.Tenants = st.Tenants
		p.Replicas = st.Replicas
		p.Batches, p.Items = st.Batches, st.Items
	}
	if snap := s.cfg.Timings.Snapshot(); len(snap) > 0 {
		p.Stages = make(map[string]StageStats, len(snap))
		for name, st := range snap {
			p.Stages[name] = StageStats{
				Count:  st.Count,
				MeanUS: st.Mean().Microseconds(),
				P50US:  st.P50().Microseconds(),
				P95US:  st.P95().Microseconds(),
				P99US:  st.P99().Microseconds(),
				MaxUS:  st.Max.Microseconds(),
			}
		}
	}
	return p
}

// handleEvents is GET /v1/events: the SSE stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.bcast.subscribe()
	if sub == nil {
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	defer s.bcast.unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": darpa event stream\n\n")
	fl.Flush()

	hb := time.NewTicker(s.cfg.heartbeat())
	defer hb.Stop()
	var statsC <-chan time.Time
	if iv := s.cfg.statsInterval(); iv > 0 {
		t := time.NewTicker(iv)
		defer t.Stop()
		statsC = t.C
	}
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				// Broadcaster closed: the server is draining. End the
				// stream so the connection drain can complete.
				return
			}
			writeEvent(w, ev)
			fl.Flush()
		case <-statsC:
			data, err := json.Marshal(s.statsPayload())
			if err == nil {
				writeEvent(w, event{name: "stats", data: data})
				fl.Flush()
			}
		case <-hb.C:
			// Comment heartbeat: keeps intermediaries from idling the
			// connection out without waking client-side event handlers.
			fmt.Fprintf(w, ": hb\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent frames one SSE event.
func writeEvent(w io.Writer, ev event) {
	if ev.id > 0 {
		fmt.Fprintf(w, "id: %d\n", ev.id)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func className(c dataset.Class) string {
	if c == dataset.ClassUPO {
		return "UPO"
	}
	return "AGO"
}

func toWireDetections(dets []metrics.Detection) []Detection {
	out := make([]Detection, 0, len(dets))
	for _, d := range dets {
		out = append(out, Detection{Class: className(d.Class), Box: toWireBox(d), Score: d.Score})
	}
	return out
}

func toWireBoxes(dets []metrics.Detection) []Box {
	out := make([]Box, 0, len(dets))
	for _, d := range dets {
		out = append(out, toWireBox(d))
	}
	return out
}

func toWireBox(d metrics.Detection) Box {
	return Box{X: d.B.X, Y: d.B.Y, W: d.B.W, H: d.B.H}
}
