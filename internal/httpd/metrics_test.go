package httpd

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

func scrape(t *testing.T, s *Server) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w, w.Body.String()
}

// TestMetricsEndpoint: /metrics serves well-formed Prometheus text carrying
// the HTTP counters, the serving ledger, the degraded chain's breaker and the
// stage latencies — the scrape CI's serve smoke performs.
func TestMetricsEndpoint(t *testing.T) {
	fixed := serve.Stats{Offered: 10, Admitted: 7, Shed: 2, Rejected: 1, Batches: 4, Items: 7}
	rec := &perfmodel.Timings{}
	rec.Observe("serve-batch", 10*time.Millisecond)
	s := New(Config{
		Backend:  &wireStub{dets: testDets()},
		Stats:    func() serve.Stats { return fixed },
		Timings:  rec,
		Degraded: PixelHeuristic{},
	})
	if w, _ := doDetect(t, s, nil, detectBody(t)); w.Code != http.StatusOK {
		t.Fatalf("detect status = %d", w.Code)
	}

	w, body := scrape(t, s)
	if w.Code != http.StatusOK {
		t.Fatalf("scrape status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != ContentTypeMetrics {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentTypeMetrics)
	}
	if n, err := metrics.ValidateText(strings.NewReader(body)); err != nil || n == 0 {
		t.Fatalf("exposition invalid (n=%d): %v\n%s", n, err, body)
	}
	for _, want := range []string{
		`darpa_http_requests_total{outcome="served"} 1`,
		`darpa_admission_requests_total{verdict="offered"} 10`,
		`darpa_scheduler_requests_total{outcome="served"} 7`,
		`darpa_stage_latency_seconds{quantile="0.5",stage="serve-batch"}`,
		"darpa_sse_subscribers 0",
		"darpa_http_draining 0",
		"darpa_degraded_breaker_trips_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing series %q in scrape:\n%s", want, body)
		}
	}
}

// TestBearerTokenNeverPublished: a bearer token doubles as the tenant id, and
// the serving layer used to give every id it saw a ledger entry — so one
// authenticated POST put the credential on /metrics as a tenant label and in
// /v1/stats as a map key, for anyone who can scrape; the handler itself
// echoed it in the response envelope, broadcast it to every /v1/events
// subscriber inside the decoration event, and wrote it to the log. Over the
// real serving stack, a token outside the admission table must appear in
// none of the five; the request is still served and still accounted, under
// serve.DefaultTenant.
func TestBearerTokenNeverPublished(t *testing.T) {
	const token = "s3cr3t-bearer-token"
	b := serve.NewReplicated(serve.Options{
		Tenants: map[serve.TenantID]serve.TenantConfig{"acme": {}},
	}, &wireStub{dets: testDets()})
	defer b.Close()
	s := New(Config{Backend: b, Stats: b.Stats})
	sub := s.bcast.subscribe()
	hdr := map[string]string{"Authorization": "Bearer " + token}
	detect, resp := doDetect(t, s, hdr, detectBody(t))
	if detect.Code != http.StatusOK {
		t.Fatalf("detect status = %d", detect.Code)
	}
	if resp.Tenant != string(serve.DefaultTenant) {
		t.Errorf("response envelope names tenant %q, want %q", resp.Tenant, serve.DefaultTenant)
	}
	ev := <-sub.ch // published before the handler returned

	// A failing backend reaches the handler's log line.
	var logged strings.Builder
	failing := New(Config{
		Backend: &wireStub{err: errors.New("backend down")},
		Logf:    func(format string, args ...any) { fmt.Fprintf(&logged, format+"\n", args...) },
	})
	failed, _ := doDetect(t, failing, hdr, detectBody(t))
	if failed.Code != http.StatusInternalServerError || logged.Len() == 0 {
		t.Fatalf("failing backend: status %d, log %q; want a logged 500", failed.Code, logged.String())
	}

	_, prom := scrape(t, s)
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	for name, body := range map[string]string{
		"/metrics":          prom,
		"/v1/stats":         w.Body.String(),
		"the 200 body":      detect.Body.String(),
		"the 500 body":      failed.Body.String(),
		"the SSE stream":    string(ev.data),
		"the handler's log": logged.String(),
	} {
		if strings.Contains(body, token) {
			t.Errorf("%s publishes the bearer token:\n%s", name, body)
		}
	}
	want := `darpa_admission_tenant_requests_total{tenant="` + string(serve.DefaultTenant) + `",verdict="admitted"} 1`
	if !strings.Contains(prom, want) {
		t.Errorf("the request is not accounted under the shared entry; want %s in:\n%s", want, prom)
	}
}

// TestMetricsEndpointMinimal: with no Stats or Timings wired, the endpoint
// still serves the HTTP-layer families rather than an empty or broken body.
func TestMetricsEndpointMinimal(t *testing.T) {
	s := New(Config{Backend: &wireStub{}})
	w, body := scrape(t, s)
	if w.Code != http.StatusOK {
		t.Fatalf("scrape status = %d", w.Code)
	}
	if n, err := metrics.ValidateText(strings.NewReader(body)); err != nil || n == 0 {
		t.Fatalf("exposition invalid (n=%d): %v\n%s", n, err, body)
	}
	if !strings.Contains(body, `darpa_http_requests_total{outcome="served"} 0`) {
		t.Errorf("missing zero-valued HTTP counter:\n%s", body)
	}
}

func TestMetricsEndpointMethodAndDrain(t *testing.T) {
	s := New(Config{Backend: &wireStub{}})
	req := httptest.NewRequest(http.MethodPost, "/metrics", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", w.Code)
	}
	// A draining server still answers scrapes — that is when operators are
	// watching hardest — and reports the state.
	s.BeginDrain()
	if w, body := scrape(t, s); w.Code != http.StatusOK || !strings.Contains(body, "darpa_http_draining 1") {
		t.Fatalf("draining scrape = %d, body:\n%s", w.Code, body)
	}
}
