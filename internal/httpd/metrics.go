package httpd

import (
	"net/http"

	"repro/internal/metrics"
)

// ContentTypeMetrics is the Prometheus text exposition content type served
// by GET /metrics.
const ContentTypeMetrics = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics is GET /metrics: one Prometheus text snapshot assembling the
// serving stack's families (admission ledger, scheduler, replica health),
// the per-stage latency summaries, and this front end's own request and SSE
// counters. The families come from the same snapshots /v1/stats renders, so
// a scraper and a JSON poller can never disagree about the same instant's
// shape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", ContentTypeMetrics)
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	if err := metrics.WriteText(w, s.families()); err != nil {
		s.cfg.logf("httpd: writing /metrics: %v", err)
	}
}

// families assembles the full exposition: HTTP layer first (it owns the
// endpoint), then the serving stack, then stage latencies.
func (s *Server) families() []metrics.Family {
	subs, dropped := s.bcast.counts()
	draining := 0.0
	if s.draining.Load() {
		draining = 1
	}
	fams := []metrics.Family{
		metrics.Counter("darpa_http_requests_total",
			"Detect requests by HTTP outcome.",
			metrics.L(float64(s.served.Load()), "outcome", "served"),
			metrics.L(float64(s.rateLimited.Load()), "outcome", "rate_limited"),
			metrics.L(float64(s.overloaded.Load()), "outcome", "overloaded")),
		metrics.Gauge("darpa_sse_subscribers",
			"Live SSE event-stream subscribers.", metrics.V(float64(subs))),
		metrics.Counter("darpa_sse_dropped_total",
			"SSE events dropped on slow subscribers.", metrics.V(float64(dropped))),
		metrics.Gauge("darpa_http_draining",
			"1 while BeginDrain has been called.", metrics.V(draining)),
	}
	if s.cfg.Stats != nil {
		fams = append(fams, s.cfg.Stats().Families()...)
	}
	fams = append(fams, s.cfg.Timings.Families()...)
	return fams
}
