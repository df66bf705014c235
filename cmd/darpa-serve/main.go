// Command darpa-serve runs the DARPA detection service as a network daemon:
// the layered serving stack (admission → scheduler → replica pool) behind
// the HTTP/SSE front end of internal/httpd. It is the deployment shape the
// paper describes — an always-on detection service that apps and auditors
// consume at run time — with per-tenant rate limits, queue-depth shedding
// answered by a degraded pixel heuristic, and live fleet telemetry pushed
// to SSE subscribers.
//
// Server mode:
//
//	darpa-serve [-addr :8080] [-weights weights] [-detector yolite]
//	            [-replicas 2] [-tenants 2] [-tenant-rate 50] [-shed-depth 16]
//
// SIGINT/SIGTERM trigger a graceful drain: stop accepting, close SSE
// streams, drain the scheduler, then exit 0.
//
// Client mode (-client URL) drives load against a running server and checks
// the full wire contract — 200 detections, 429 rate limiting, 503 shedding
// with degraded bodies, SSE decoration/stats events:
//
//	darpa-serve -client http://127.0.0.1:8080 -requests 8 -concurrency 4
//	            -tenant tenant0 -sse 1 -expect-detect -expect-limited
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"image/png"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/httpd"
	"repro/internal/perfmodel"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	// Server flags.
	addr := flag.String("addr", ":8080", "listen address")
	weights := flag.String("weights", "weights", "pretrained weights directory")
	detector := flag.String("detector", "yolite", "registry backend to serve")
	replicas := flag.Int("replicas", 1, "independent model replicas behind the scheduler")
	tenants := flag.Int("tenants", 1, "tenant identities in the admission table (tenant0 is live-priority, the rest batch-priority)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate limit in requests/sec (0 = unlimited)")
	shedDepth := flag.Int("shed-depth", 0, "shed requests once the scheduler queues hold this many (0 = never shed)")
	conf := flag.Float64("conf", 0, "default confidence threshold (0 = model default)")
	heartbeat := flag.Duration("heartbeat", httpd.DefaultHeartbeat, "SSE keep-alive interval")
	statsEvery := flag.Duration("stats-interval", httpd.DefaultStatsInterval, "SSE stats frame interval")

	// Client flags.
	client := flag.String("client", "", "run as a load client against this base URL instead of serving")
	requests := flag.Int("requests", 4, "client: detect requests to send")
	concurrency := flag.Int("concurrency", 1, "client: concurrent senders")
	tenant := flag.String("tenant", "", "client: tenant header value")
	priority := flag.String("priority", "", "client: priority header (live|batch)")
	sseWant := flag.Int("sse", 0, "client: subscribe to /v1/events and wait for this many events")
	timeout := flag.Duration("timeout", 30*time.Second, "client: overall deadline")
	seed := flag.Int64("seed", 1, "client: AUI screen generator seed")
	expectDetect := flag.Bool("expect-detect", false, "client: fail unless >=1 response carried a detection")
	expectLimited := flag.Bool("expect-limited", false, "client: fail unless >=1 request was 429 rate-limited")
	expectShed := flag.Bool("expect-shed", false, "client: fail unless >=1 request was 503 shed")
	flag.Parse()

	if *client != "" {
		os.Exit(runClient(clientConfig{
			base:          strings.TrimRight(*client, "/"),
			requests:      *requests,
			concurrency:   *concurrency,
			tenant:        *tenant,
			priority:      *priority,
			sseWant:       *sseWant,
			timeout:       *timeout,
			seed:          *seed,
			expectDetect:  *expectDetect,
			expectLimited: *expectLimited,
			expectShed:    *expectShed,
		}))
	}

	// Build the replica pool: train-if-cold happens once; replica builds
	// after the first are warm weight loads producing independent instances.
	bctx := detect.BuildContext{
		WeightsDir:  *weights,
		SaveWeights: true,
		Samples: func() []*dataset.Sample {
			log.Printf("no pretrained weights in %s; training a quick model...", *weights)
			return auigen.BuildAUISamples(1, 96, auigen.DatasetConfig{})
		},
		Epochs: 10,
		Logf:   log.Printf,
	}
	reps, err := detect.BuildReplicas(*detector, bctx, *replicas)
	if err != nil {
		log.Fatal(err)
	}

	// Admission table, same shape as darpa-sim's fleet mode: tenant0 is the
	// interactive tier, every other named tenant the audit tier; tenants
	// outside the table get the unlimited default.
	table := make(map[serve.TenantID]serve.TenantConfig, *tenants)
	for t := 0; t < *tenants; t++ {
		prio := serve.PriorityLive
		if t > 0 {
			prio = serve.PriorityBatch
		}
		table[serve.TenantID(fmt.Sprintf("tenant%d", t))] = serve.TenantConfig{
			Rate:     *tenantRate,
			Priority: prio,
		}
	}
	rec := &perfmodel.Timings{}
	batcher := serve.NewReplicated(serve.Options{
		Timings:       rec,
		Tenants:       table,
		MaxQueueDepth: *shedDepth,
	}, reps...)

	api := httpd.New(httpd.Config{
		Backend:       batcher,
		Stats:         batcher.Stats,
		Timings:       rec,
		Degraded:      httpd.PixelHeuristic{},
		ConfThresh:    *conf,
		Heartbeat:     *heartbeat,
		StatsInterval: *statsEvery,
		Logf:          log.Printf,
	})
	srv := &http.Server{Addr: *addr, Handler: api}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("darpa-serve: draining...")
		// Drain order: refuse new work and end SSE streams, let the HTTP
		// server finish in-flight requests, then drain the scheduler.
		api.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("darpa-serve: shutdown: %v", err)
		}
		batcher.Close()
	}()

	log.Printf("darpa-serve: %d replica(s) of %s on %s (%d tenant(s), rate %.4g/s, shed depth %d)",
		*replicas, *detector, *addr, *tenants, *tenantRate, *shedDepth)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	st := batcher.Stats()
	log.Printf("darpa-serve: served %d screens in %d forwards; admission %d offered = %d admitted + %d shed + %d rejected",
		st.Items, st.Batches, st.Offered, st.Admitted, st.Shed, st.Rejected)
	log.Printf("darpa-serve: timings: %s", rec.String())
}

// clientConfig bundles the load-client knobs.
type clientConfig struct {
	base          string
	requests      int
	concurrency   int
	tenant        string
	priority      string
	sseWant       int
	timeout       time.Duration
	seed          int64
	expectDetect  bool
	expectLimited bool
	expectShed    bool
}

// runClient drives the wire contract end to end and returns the process
// exit code: POSTs generated AUI screens at the requested concurrency,
// tallies the status codes, and (optionally) holds an SSE subscription open
// until the requested number of events arrived.
func runClient(cfg clientConfig) int {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()

	// Pre-render distinct AUI screens so requests are not all cache-alike.
	n := cfg.requests
	if n < 1 {
		n = 1
	}
	screens := auigen.BuildAUISamples(cfg.seed, min(n, 16), auigen.DatasetConfig{})
	bodies := make([][]byte, len(screens))
	for i, s := range screens {
		var buf bytes.Buffer
		if err := png.Encode(&buf, s.Input.Image()); err != nil {
			log.Printf("client: encoding screen %d: %v", i, err)
			return 1
		}
		body, _ := json.Marshal(httpd.DetectRequest{Screen: base64.StdEncoding.EncodeToString(buf.Bytes())})
		bodies[i] = body
	}

	// SSE subscription first, so decoration events from our own posts are
	// observed.
	sseEvents := make(chan string, 64)
	sseErr := make(chan error, 1)
	if cfg.sseWant > 0 {
		go subscribeSSE(ctx, cfg, sseEvents, sseErr)
	}

	var served, withDets, limited, shed, degraded, failed atomic.Int64
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < cfg.requests; i++ {
			next <- i
		}
		close(next)
	}()
	workers := cfg.concurrency
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				status, resp, err := postDetect(ctx, cfg, bodies[i%len(bodies)])
				if err != nil {
					log.Printf("client: request %d: %v", i, err)
					failed.Add(1)
					continue
				}
				switch status {
				case http.StatusOK:
					served.Add(1)
					if len(resp.Detections) > 0 {
						withDets.Add(1)
					}
				case http.StatusTooManyRequests:
					limited.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1)
					if resp.Degraded {
						degraded.Add(1)
					}
				default:
					log.Printf("client: request %d: unexpected status %d (%s)", i, status, resp.Error)
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	gotSSE := 0
	if cfg.sseWant > 0 {
		for gotSSE < cfg.sseWant {
			select {
			case name := <-sseEvents:
				gotSSE++
				log.Printf("client: SSE event %d: %s", gotSSE, name)
			case err := <-sseErr:
				log.Printf("client: SSE stream: %v", err)
				gotSSE = -1
			case <-ctx.Done():
				log.Printf("client: timed out waiting for SSE events (%d/%d)", gotSSE, cfg.sseWant)
				gotSSE = -1
			}
			if gotSSE < 0 {
				break
			}
		}
	}

	log.Printf("client: %d requests -> %d served (%d with detections), %d rate-limited, %d shed (%d degraded bodies), %d failed; %d SSE events",
		cfg.requests, served.Load(), withDets.Load(), limited.Load(), shed.Load(), degraded.Load(), failed.Load(), gotSSE)

	code := 0
	if failed.Load() > 0 {
		code = 1
	}
	if cfg.expectDetect && withDets.Load() == 0 {
		log.Printf("client: FAIL: expected at least one detection response")
		code = 1
	}
	if cfg.expectLimited && limited.Load() == 0 {
		log.Printf("client: FAIL: expected at least one 429")
		code = 1
	}
	if cfg.expectShed && shed.Load() == 0 {
		log.Printf("client: FAIL: expected at least one 503")
		code = 1
	}
	if cfg.sseWant > 0 && gotSSE < cfg.sseWant {
		log.Printf("client: FAIL: expected %d SSE events", cfg.sseWant)
		code = 1
	}
	return code
}

// postDetect sends one detect request and decodes the response body
// regardless of status (429/503 bodies carry the error and any degraded
// result).
func postDetect(ctx context.Context, cfg clientConfig, body []byte) (int, *httpd.DetectResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.base+"/v1/detect", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.tenant != "" {
		req.Header.Set(httpd.HeaderTenant, cfg.tenant)
	}
	if cfg.priority != "" {
		req.Header.Set(httpd.HeaderPriority, cfg.priority)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	var dr httpd.DetectResponse
	if err := json.NewDecoder(res.Body).Decode(&dr); err != nil {
		return res.StatusCode, nil, fmt.Errorf("decoding status-%d body: %w", res.StatusCode, err)
	}
	return res.StatusCode, &dr, nil
}

// subscribeSSE holds /v1/events open and forwards each named event to out.
func subscribeSSE(ctx context.Context, cfg clientConfig, out chan<- string, errc chan<- error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.base+"/v1/events", nil)
	if err != nil {
		errc <- err
		return
	}
	if cfg.tenant != "" {
		req.Header.Set(httpd.HeaderTenant, cfg.tenant)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		errc <- err
		return
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		errc <- fmt.Errorf("events stream status %d", res.StatusCode)
		return
	}
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			select {
			case out <- name:
			case <-ctx.Done():
				return
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		errc <- err
	}
}
