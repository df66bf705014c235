package detect

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// This file is the resilience layer of the detector seam: panic-to-error
// recovery, bounded retry with backoff, and health-tracked fallback chains
// with circuit breaking. The layer's contract has two halves:
//
//   - Transparent when healthy: with no faults, a wrapped stack returns
//     bit-identical results to the bare backend (the equivalence the
//     property tests pin), because every wrapper's success path hands the
//     inner result through untouched.
//   - Contained when faulty: a panic becomes an error at the seam, an error
//     is retried with backoff then handed to the next backend in the chain,
//     a persistently failing backend is circuit-broken out of the rotation,
//     and a corrupt result (NaN boxes, out-of-range scores) is treated as a
//     failure rather than handed downstream.

// PanicError wraps a panic recovered at the detector seam, so one bad
// screen surfaces as an inference error instead of killing the process.
type PanicError struct{ Value any }

// Error describes the recovered panic.
func (e *PanicError) Error() string { return fmt.Sprintf("detect: backend panicked: %v", e.Value) }

// ErrCorruptResult marks a result that failed validation (non-finite or
// negative-size boxes, scores outside [0, 1]).
var ErrCorruptResult = errors.New("detect: backend returned corrupt detections")

// ErrAllBackendsFailed is wrapped by a fallback chain when no backend could
// serve a call; errors.Is recognises both it and the last backend's error.
var ErrAllBackendsFailed = errors.New("detect: all fallback backends failed")

// ValidDetections reports whether every detection is structurally sane:
// finite box coordinates, non-negative box sizes, and a finite score in
// [0, 1]. Guarded holds every answer to it — the guard that stops a
// corrupted tensor from flowing into decoration as a NaN-positioned overlay.
func ValidDetections(dets []metrics.Detection) bool {
	for _, d := range dets {
		b := d.B
		if !finite(b.X) || !finite(b.Y) || !finite(b.W) || !finite(b.H) {
			return false
		}
		if b.W < 0 || b.H < 0 {
			return false
		}
		if !finite(d.Score) || d.Score < 0 || d.Score > 1 {
			return false
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// isCtxError reports whether err is a cancellation or deadline expiry —
// caller-initiated conditions that resilience must propagate, never retry
// or fall back on (the caller has left; more compute helps nobody).
func isCtxError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Guarded is the seam's one checked call, the only place a backend's answer
// is held to the contract: a dead context is refused before the backend is
// reached, a panic becomes *PanicError, an answer without exactly one result
// per batch item becomes ErrMisaligned, and an item ValidDetections rejects
// becomes ErrCorruptResult. A healthy answer is handed through untouched.
// Every wrapper (Cache, Retrier, FallbackChain, the serving layer's Batcher)
// and every pipeline (core's infer stage and batch audit) reaches its backend
// through it, so no caller can forget the check.
func Guarded(ctx context.Context, d Detector, x *tensor.Tensor, conf float64) (out [][]metrics.Detection, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, &PanicError{Value: p}
		}
	}()
	out, err = d.PredictBatchCtx(ctx, x, conf)
	if err != nil {
		return nil, err
	}
	if want := batchLen(x); len(out) != want {
		return nil, misaligned(len(out), want, "items")
	}
	for _, dets := range out {
		if !ValidDetections(dets) {
			return nil, ErrCorruptResult
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Retry

// Backoff before the first retry, doubled per attempt up to the cap.
const (
	retryBaseDelay = time.Millisecond
	retryMaxDelay  = 50 * time.Millisecond
)

// RetryStats snapshots a Retrier's activity.
type RetryStats struct {
	// Calls counts inference calls through the wrapper.
	Calls int
	// Retries counts extra attempts made beyond each call's first.
	Retries int
	// Recovered counts calls that failed at least once and ultimately
	// succeeded — the screens retry actually saved.
	Recovered int
	// Failures counts calls that exhausted every attempt.
	Failures int
}

// Retrier retries failed inference calls with exponential backoff and
// jitter. Panics in the inner backend are recovered and count as failed
// attempts; cancellations and deadline expiries are never retried. Safe for
// concurrent use.
type Retrier struct {
	inner    Detector
	attempts int
	// retryBaseDelay and retryMaxDelay; fields so in-package tests can back
	// off for a nanosecond.
	baseDelay, maxDelay time.Duration

	mu    sync.Mutex
	rng   *rand.Rand // jitter; fixed seed so backoff sequences replay
	stats RetryStats
}

// WithRetry wraps d with bounded, backed-off retry: at most attempts tries
// per call, first try included (<= 0 means 3). A result ValidDetections
// rejects counts as a failed attempt (ErrCorruptResult).
func WithRetry(d Detector, attempts int) *Retrier {
	if attempts <= 0 {
		attempts = 3
	}
	return &Retrier{
		inner: d, attempts: attempts,
		baseDelay: retryBaseDelay, maxDelay: retryMaxDelay,
		rng: rand.New(rand.NewSource(1)),
	}
}

// Name reports the inner backend's name.
func (r *Retrier) Name() string { return r.inner.Name() }

// Stats returns a snapshot of retry activity.
func (r *Retrier) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// backoff sleeps before retry attempt (1-based), honouring ctx. The delay
// is baseDelay doubled per attempt, capped at maxDelay, with half-interval
// jitter drawn from the seeded RNG.
func (r *Retrier) backoff(ctx context.Context, attempt int) error {
	d := r.baseDelay << (attempt - 1)
	if d > r.maxDelay || d <= 0 {
		d = r.maxDelay
	}
	r.mu.Lock()
	jitter := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	d = d/2 + jitter
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// note folds one event into the stats under the lock.
func (r *Retrier) note(f func(*RetryStats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// PredictBatchCtx runs the retry loop: up to attempts guarded, validated
// attempts separated by jittered exponential backoff. One forward serves
// every item, so the batch fails and retries as a unit (per-item containment
// is the serving layer's poison isolation, not the retrier's). A first-try
// success is returned untouched (the bit-equality half of the contract); a
// cancellation or deadline expiry propagates immediately.
func (r *Retrier) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	r.note(func(s *RetryStats) { s.Calls++ })
	var lastErr error
	for attempt := 0; attempt < r.attempts; attempt++ {
		if attempt > 0 {
			if err := r.backoff(ctx, attempt); err != nil {
				return nil, err
			}
			r.note(func(s *RetryStats) { s.Retries++ })
		}
		out, err := Guarded(ctx, r.inner, x, conf)
		if err == nil {
			if attempt > 0 {
				r.note(func(s *RetryStats) { s.Recovered++ })
			}
			return out, nil
		}
		if isCtxError(err) || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	r.note(func(s *RetryStats) { s.Failures++ })
	return nil, lastErr
}

// ---------------------------------------------------------------------------
// Fallback chain with circuit breaking

// A breaker opens after breakerFailures consecutive failures and sits out
// breakerCooldown chain calls before a half-open probe. Counting calls
// instead of wall-clock keeps chaos runs deterministic.
const (
	breakerFailures = 5
	breakerCooldown = 32
)

// BackendHealth snapshots one chain member's health tracking.
type BackendHealth struct {
	// Name is the backend's registry name.
	Name string
	// Uses counts attempts routed to the backend (probes included).
	Uses int
	// Successes and Failures count those attempts' outcomes.
	Successes, Failures int
	// Consecutive is the current consecutive-failure streak.
	Consecutive int
	// Open reports whether the breaker is currently open.
	Open bool
	// Tripped counts how many times the breaker opened.
	Tripped int
}

// FallbackStats snapshots chain-level activity.
type FallbackStats struct {
	// Calls counts inference calls into the chain.
	Calls int
	// FellBack counts calls served by a backend other than the primary.
	FellBack int
	// Failures counts calls no backend could serve.
	Failures int
	// Backends holds each member's health, primary first.
	Backends []BackendHealth
}

// health is one backend's mutable breaker state.
type health struct {
	consec   int
	open     bool
	cooldown int
	uses     int
	succ     int
	fail     int
	tripped  int
}

// FallbackChain tries backends in order until one serves the call, each
// behind its circuit breaker: breakAfter consecutive failures open a
// backend's breaker, removing it from rotation for cooldown calls, after
// which a single probe is allowed through (half-open) — a success closes the
// breaker, another failure re-opens it for a fresh cooldown. Panics and
// results ValidDetections rejects count as failures. The mutex is never held
// across an inference call, so one slow or deadlocked backend cannot wedge
// the accounting. Safe for concurrent use.
type FallbackChain struct {
	backends []Detector
	// breakerFailures and breakerCooldown; fields so in-package tests can
	// trip a breaker on the first failure.
	breakAfter, cooldown int

	mu     sync.Mutex
	health []health
	stats  FallbackStats
}

// WithFallback chains backends primary-first. It panics when given no
// backends (a chain that can serve nothing is a programming error).
func WithFallback(backends ...Detector) *FallbackChain {
	if len(backends) == 0 {
		panic("detect: WithFallback requires at least one backend")
	}
	return &FallbackChain{
		backends:   backends,
		breakAfter: breakerFailures, cooldown: breakerCooldown,
		health: make([]health, len(backends)),
	}
}

// Name reports the primary backend's name.
func (f *FallbackChain) Name() string { return f.backends[0].Name() }

// Stats returns a snapshot of chain activity and per-backend health.
func (f *FallbackChain) Stats() FallbackStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Backends = f.snapshot()
	return st
}

func (f *FallbackChain) note(fn func(*FallbackStats)) {
	f.mu.Lock()
	fn(&f.stats)
	f.mu.Unlock()
}

// snapshot reports every member's health, in constructor order. The caller
// holds mu.
func (f *FallbackChain) snapshot() []BackendHealth {
	out := make([]BackendHealth, len(f.backends))
	for i, h := range f.health {
		out[i] = BackendHealth{
			Name:        f.backends[i].Name(),
			Uses:        h.uses,
			Successes:   h.succ,
			Failures:    h.fail,
			Consecutive: h.consec,
			Open:        h.open,
			Tripped:     h.tripped,
		}
	}
	return out
}

// admit decides whether backend i may serve this call. An open breaker
// counts the call against its cooldown and, once the cooldown is spent,
// admits a half-open probe (the breaker stays open until that probe
// succeeds).
func (f *FallbackChain) admit(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := &f.health[i]
	if !h.open {
		return true
	}
	if h.cooldown > 0 {
		h.cooldown--
		return false
	}
	return true
}

// noteOutcome records one attempt's result on backend i, driving the
// breaker state machine.
func (f *FallbackChain) noteOutcome(i int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h := &f.health[i]
	h.uses++
	if ok {
		h.succ++
		h.consec = 0
		h.open = false
		return
	}
	h.fail++
	h.consec++
	if h.open {
		// Failed half-open probe: re-arm the cooldown.
		h.cooldown = f.cooldown
		return
	}
	if h.consec >= f.breakAfter {
		h.open = true
		h.cooldown = f.cooldown
		h.tripped++
	}
}

// try runs one breaker-gated, guarded, validated attempt on backend i. ran
// is false when the attempt did not count: the breaker kept the backend out
// (err nil), or the caller's context ended before or during the call (err is
// the context's error, to be propagated at once) — a cancellation is charged
// to nobody's health, the caller left and the backend did nothing wrong.
func (f *FallbackChain) try(ctx context.Context, i int, x *tensor.Tensor, conf float64) (out [][]metrics.Detection, ran bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if !f.admit(i) {
		return nil, false, nil
	}
	out, err = Guarded(ctx, f.backends[i], x, conf)
	if err != nil && isCtxError(err) && ctx.Err() != nil {
		return nil, false, err
	}
	f.noteOutcome(i, err == nil)
	return out, true, err
}

// allFailed is the error of a call no backend could serve.
func (f *FallbackChain) allFailed(lastErr error) error {
	if lastErr == nil {
		// Every breaker was open and in cooldown; nothing even ran.
		return fmt.Errorf("%w (all %d circuit-broken)", ErrAllBackendsFailed, len(f.backends))
	}
	return fmt.Errorf("%w: last: %w", ErrAllBackendsFailed, lastErr)
}

// PredictBatchCtx walks the chain with whole-batch attempts: the first
// admitted backend that returns a valid result serves the call, failures
// advance to the next backend, and cancellations propagate immediately.
func (f *FallbackChain) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	f.note(func(s *FallbackStats) { s.Calls++ })
	var lastErr error
	for i := range f.backends {
		out, ran, err := f.try(ctx, i, x, conf)
		switch {
		case !ran && err != nil:
			return nil, err
		case !ran:
			continue
		case err != nil:
			lastErr = err
			continue
		}
		if i > 0 {
			f.note(func(s *FallbackStats) { s.FellBack++ })
		}
		return out, nil
	}
	f.note(func(s *FallbackStats) { s.Failures++ })
	return nil, f.allFailed(lastErr)
}
