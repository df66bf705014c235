// Command darpa-serve runs the DARPA detection service as a network daemon:
// the layered serving stack (admission → scheduler → replica pool) behind
// the HTTP/SSE front end of internal/httpd. It is the deployment shape the
// paper describes — an always-on detection service that apps and auditors
// consume at run time — with per-tenant rate limits, queue-depth shedding,
// and live fleet telemetry pushed to SSE subscribers.
//
//	darpa-serve [-addr :8080] [-weights weights] [-detector yolite]
//	            [-replicas 2] [-tenants 2] [-tenant-rate 50] [-shed-depth 16]
//
// SIGINT/SIGTERM trigger a graceful drain: stop accepting, close SSE
// streams, drain the scheduler, then exit 0. The wire contract (200
// detections, 429 rate limiting, bare 503 shedding, SSE events) is pinned
// by internal/httpd's tests over the same stack.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
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
	flag.Parse()

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

	// Admission table, the one darpa-sim's fleet mode runs; tenants outside
	// it get the unlimited default.
	table, _ := serve.TieredTenants(*tenants, *tenantRate)
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
