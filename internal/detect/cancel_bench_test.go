package detect

import (
	"context"
	"testing"
	"time"

	"repro/internal/tensor"
	"repro/internal/yolite"
)

// benchCancelModel builds the pooled float backend the cancellation numbers
// are quoted against.
func benchCancelModel() (*yolite.Model, *tensor.Tensor) {
	m := yolite.NewModel(3)
	m.Pool = tensor.NewPool()
	x := randomBatch(1, 42)
	m.PredictTensor(x, 0, 0.3) // warm the pool
	return m, x
}

// BenchmarkPredictCtxBackground drives the seam with Background: the Done
// channel is nil, so every checkpoint is one nil check. It is the baseline
// the cancellation overhead is measured against.
func BenchmarkPredictCtxBackground(b *testing.B) {
	m, x := benchCancelModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(context.Background(), m, x, 0, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictCtxCancellable drives the same forward with a real Done
// channel that never fires, so every between-layer and between-block
// checkpoint polls it. The gap to BenchmarkPredictCtxBackground is the entire
// cost of cancellation support on the happy path.
func BenchmarkPredictCtxCancellable(b *testing.B) {
	m, x := benchCancelModel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(ctx, m, x, 0, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCancelMidForward measures abort latency: a cancel fired partway
// into the forward, with the time from cancel to return reported as
// abort-ns/op. The target is within roughly one conv layer — orders of
// magnitude under the full forward, whose duration is reported alongside as
// forward-ns for scale.
func BenchmarkCancelMidForward(b *testing.B) {
	m, x := benchCancelModel()
	// Time one clean forward to place the cancel mid-backbone.
	start := time.Now()
	m.PredictTensor(x, 0, 0.3)
	full := time.Since(start)
	delay := full / 3
	var abortTotal time.Duration
	aborts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		begin := time.Now()
		_, err := Predict(ctx, m, x, 0, 0.3)
		took := time.Since(begin)
		timer.Stop()
		cancel()
		if err != nil && took > delay {
			abortTotal += took - delay
			aborts++
		}
	}
	b.StopTimer()
	if aborts > 0 {
		b.ReportMetric(float64(abortTotal.Nanoseconds())/float64(aborts), "abort-ns")
	}
	b.ReportMetric(float64(full.Nanoseconds()), "forward-ns")
	b.ReportMetric(float64(aborts)/float64(b.N), "abort-rate")
}
