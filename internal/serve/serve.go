// Package serve is the concurrent serving layer: it multiplexes many
// independent auditors (simulated devices, store-audit workers) onto a shared
// pool of detector replicas. It is built as three explicit layers —
//
//	admission  (admission.go)  per-tenant token buckets, priority assignment,
//	                           queue-depth load shedding
//	scheduler  (scheduler.go)  priority queues and dynamic batch formation
//	                           (coalesce, then group by threshold + shape)
//	replicas   (replica.go)    N independently-pooled model instances with
//	                           per-replica health accounting and benching
//
// — fronted by the Batcher facade in this file. It is a detect.Detector over
// detect.Detectors, so any backend — float, int8, cached, decorated — sits
// behind it unchanged, and its answers are bit-identical to the backend's.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// DefaultMaxBatch is the MaxBatch used when Options leaves it zero.
const DefaultMaxBatch = 8

// Options tune the serving layers.
type Options struct {
	// MaxBatch caps how many requests one forward carries. Nothing waits
	// to reach it: a batch is whatever queued while the replicas were busy,
	// so under light load every batch is a batch of one.
	MaxBatch int
	// Timings optionally receives the "serve-batch" stage: each forward's
	// wall time, amortised over its items. Every count lives in Stats. Nil
	// disables recording.
	Timings *perfmodel.Timings

	// Tenants is the admission table: per-tenant rate limits and priority.
	// A tenant present here gets its configured priority regardless of what
	// its requests' contexts claim. Tenants absent from the table (all of
	// them when it is nil) share DefaultTenant's ledger entry and policy:
	// unless the table lists DefaultTenant itself they are unlimited, at
	// the priority their requests carry, so callers that configure nothing
	// admit everything.
	Tenants map[TenantID]TenantConfig
	// MaxQueueDepth sheds requests once the scheduler's queues hold this
	// many, answering them ErrOverloaded; 0 disables shedding.
	MaxQueueDepth int
}

// request is one in-flight screen: the one-item tensor x, answered on resp.
type request struct {
	ctx  context.Context
	x    *tensor.Tensor
	conf float64
	resp chan response
}

// response answers one request: its one-item result on success, the request
// context's error when it was cancelled or expired before the forward ran.
type response struct {
	out [][]metrics.Detection
	err error
}

// Stats is a point-in-time snapshot across all three layers. Batches,
// Items, Poisoned and Failed are sums over Replicas; the admission totals are
// sums over Tenants.
type Stats struct {
	Batches       int // forwards dispatched (after threshold grouping)
	Items         int // requests a replica answered; pruned ones are Cancelled
	MaxBatchSize  int // largest coalesced forward
	MaxQueueDepth int // most requests seen waiting after a collection
	Cancelled     int // requests pruned at batch formation (ctx dead in queue)
	Poisoned      int // grouped forwards that failed and were re-run item by item
	Failed        int // requests answered with a non-cancellation error

	// Admission ledger; Offered == Admitted + Shed + Rejected always.
	Offered  int
	Admitted int
	Shed     int
	Rejected int
	Tenants  map[TenantID]TenantStats

	// Replicas holds one health/utilisation ledger per pool member.
	Replicas []ReplicaStats
}

// Batcher is the serving facade: admission in front, priority scheduler in
// the middle, replica pool at the back. It implements detect.Detector, so it
// drops in anywhere a backend fits — including under the middleware
// decorators, though the natural stack is Batcher on the outside of the
// shared cache:
//
//	shared := serve.NewReplicated(serve.Options{}, detect.WithResultCache(model, 256))
//
// Safe for concurrent use. After Close, a request is refused with ErrClosed.
type Batcher struct {
	inner detect.Detector // first replica's backend: the multi-item direct path
	rec   *perfmodel.Timings
	adm   *admission
	sched *scheduler
	reps  []*replica

	mu       sync.RWMutex // guards closed vs. sends on the scheduler queues
	closed   bool
	wg       sync.WaitGroup // one worker per replica
	stopping chan struct{}  // closed at Close: wakes benched replicas for the drain
	done     chan struct{}  // closed once every worker has drained and exited

	statsMu sync.Mutex
	stats   Stats
}

var _ detect.Detector = (*Batcher)(nil)

// NewReplicated starts the serving layers over a pool of replicas, one
// worker goroutine per replica. Each replica should be an independent model
// instance from detect.BuildReplicas, which is also where each gets its
// private tensor.Pool for head maps (intermediates recycle process-wide).
// Each priority queue buffers 4 x MaxBatch x replicas requests. Callers own
// the returned Batcher and should Close it to stop the workers; requests in
// flight at Close are still answered. Panics when called with no replicas.
func NewReplicated(opts Options, replicas ...detect.Detector) *Batcher {
	return newReplicated(opts, replicaBenchAfter, replicaBenchFor, replicas...)
}

// newReplicated is NewReplicated with the replica-health constants as
// parameters, so tests can bench after one failure or for an hour.
func newReplicated(opts Options, benchAfter int, benchFor time.Duration, replicas ...detect.Detector) *Batcher {
	if len(replicas) == 0 {
		panic("serve: NewReplicated requires at least one replica")
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if len(replicas) == 1 {
		// Benching the only instance would stall all traffic for no benefit.
		benchAfter = 0
	}
	b := &Batcher{
		inner:    replicas[0],
		rec:      opts.Timings,
		adm:      newAdmission(opts.Tenants, opts.MaxQueueDepth, nil),
		sched:    newScheduler(opts.MaxBatch, 4*opts.MaxBatch*len(replicas)),
		stopping: make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i, backend := range replicas {
		rep := newReplica(i, backend, benchAfter, benchFor)
		b.reps = append(b.reps, rep)
		b.wg.Add(1)
		go b.worker(rep)
	}
	return b
}

// Name reports the first replica's name, so a batched detector still shows
// up as itself in tables and logs.
func (b *Batcher) Name() string { return b.inner.Name() }

// Stats returns a snapshot across the layers.
func (b *Batcher) Stats() Stats {
	b.statsMu.Lock()
	st := b.stats
	b.statsMu.Unlock()
	adm := b.adm.snapshot()
	st.Offered, st.Admitted, st.Shed, st.Rejected = adm.Offered, adm.Admitted, adm.Shed, adm.Rejected
	st.Tenants = adm.Tenants
	st.Replicas = make([]ReplicaStats, len(b.reps))
	for i, r := range b.reps {
		st.Replicas[i] = r.snapshot()
		st.Batches += st.Replicas[i].Batches
		st.Items += st.Replicas[i].Items
		st.Poisoned += st.Replicas[i].Poisoned
		st.Failed += st.Replicas[i].Failed
	}
	return st
}

// Close stops accepting new batched work, waits for every worker to drain
// its queued requests, and stops the worker goroutines. PredictBatchCtx
// remains safe to call afterwards: a request is refused with ErrClosed.
// Close is idempotent. The closed flag flips under the write lock while every
// submission holds the read lock across its admission decision and enqueue,
// so a request observes either an open Batcher (and is drained before Close
// returns) or ErrClosed — never a closed queue mid-send.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	// Wake any replica sleeping out a bench cooldown before closing the
	// queues: a benched replica must join the drain immediately, not block
	// shutdown for up to its remaining BenchFor.
	close(b.stopping)
	b.sched.close()
	b.mu.Unlock()
	b.wg.Wait()
	close(b.done)
}

// PredictBatchCtx is the detector seam over the serving layers. A one-item
// tensor is a request: it passes admission, waits in its priority queue,
// rides one forward with whatever else was queued, and comes back as
// exactly what the backend alone would have returned for it (the backends'
// arithmetic is per-item independent — the seam-conformance tests pin that).
// A tensor of several items is already a batch: there is nothing to coalesce,
// and routing it through the queue would only add latency, so it goes
// straight to the first replica's backend. After Close a one-item request
// returns ErrClosed. Every path reaches a backend through detect.Guarded, so a
// panic, a misaligned answer or a corrupt one is an error on each of them.
//
// An already-dead context is rejected before touching the layers; a context
// that dies while the request is queued makes the caller return ctx.Err()
// immediately (the scheduler prunes the abandoned request at batch formation
// and never spends forward compute on it); a context that dies during the
// forward still returns ctx.Err() promptly — the batch the request rode in
// completes for its other members and the orphaned result is dropped into
// the buffered response channel, so no worker ever blocks on a caller that
// left. That forward may still be reading x when the caller returns, so a
// caller that left on a dead context must not write x again. Tenant identity attached via WithTenant selects the rate bucket and
// priority queue.
func (b *Batcher) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if x == nil || len(x.Shape) == 0 || x.Shape[0] != 1 {
		return detect.Guarded(ctx, b.inner, x, confThresh)
	}
	return b.submit(ctx, x, confThresh)
}

// PredictTensorCtx is a shim kept for cmd/darpa-bench, which prices the
// serving stack through this name: PredictBatchCtx, item n of the answer.
// Nothing else calls it.
func (b *Batcher) PredictTensorCtx(ctx context.Context, x *tensor.Tensor, n int, confThresh float64) ([]metrics.Detection, error) {
	out, err := b.PredictBatchCtx(ctx, x, confThresh)
	if err != nil {
		return nil, err
	}
	if n < 0 || n >= len(out) {
		return nil, fmt.Errorf("serve: item %d is outside a batch of %d", n, len(out))
	}
	return out[n], nil
}

// submit runs one request through admission and, if admitted, the scheduler.
// The read lock spans the admission decision and the enqueue, making the
// decision atomic with respect to Close: ErrClosed is deterministic, an
// admitted request is always drained.
func (b *Batcher) submit(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, ErrClosed
	}
	info := TenantFrom(ctx)
	v, prio := b.adm.decide(info, b.sched.depth())
	switch v {
	case rejected:
		b.mu.RUnlock()
		return nil, fmt.Errorf("%w: tenant %q", ErrRateLimited, info.ID)
	case shed:
		b.mu.RUnlock()
		return nil, ErrOverloaded
	}
	resp := make(chan response, 1)
	req := request{ctx: ctx, x: x, conf: confThresh, resp: resp}
	// Send under the read lock: Close cannot close the queues while any
	// sender holds it, and the buffered channel plus the draining workers
	// keep the critical section short. The caller stops waiting — for queue
	// space, then for its answer — the moment its context dies.
	select {
	case b.sched.queues[prio] <- req:
		b.mu.RUnlock()
	case <-ctx.Done():
		b.mu.RUnlock()
		return nil, ctx.Err()
	}
	select {
	case r := <-resp:
		return r.out, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// worker is one replica's serving loop: sit out any bench cooldown, claim
// the head request, add what is already queued behind it, flush. Closed queues
// drain naturally — take returns the stragglers until ok=false, and the
// worker exits. With N replicas, N workers pull from the shared priority
// queues, so a slow or benched replica's share flows to its peers.
func (b *Batcher) worker(rep *replica) {
	defer b.wg.Done()
	for {
		rep.waitBench(b.stopping)
		first, ok := b.sched.take()
		if !ok {
			return
		}
		batch := b.sched.collect(first)
		b.noteCollected(len(batch), b.sched.depth())
		b.flush(rep, batch)
	}
}

// noteCollected folds one collection into the counters.
func (b *Batcher) noteCollected(size, depth int) {
	b.statsMu.Lock()
	if size > b.stats.MaxBatchSize {
		b.stats.MaxBatchSize = size
	}
	if depth > b.stats.MaxQueueDepth {
		b.stats.MaxQueueDepth = depth
	}
	b.statsMu.Unlock()
}

// flush answers every request in batch on rep. Requests whose context died
// while they waited are pruned first — their callers have already returned
// (or are about to), so spending forward compute on them is pure waste; each
// is answered with its ctx.Err() into its buffered channel. Survivors are
// split by groupRequests — one threshold, one shape per forward — and each
// group runs as one forward.
func (b *Batcher) flush(rep *replica, batch []request) {
	live := batch[:0]
	pruned := 0
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.resp <- response{err: err}
			pruned++
			continue
		}
		live = append(live, r)
	}
	if pruned > 0 {
		b.statsMu.Lock()
		b.stats.Cancelled += pruned
		b.statsMu.Unlock()
	}
	for _, group := range groupRequests(live) {
		b.runGroup(rep, group)
	}
}

// runGroup executes one homogeneous group on rep, records it in the
// timing recorder and the replica's ledger, and only then answers each
// requester, so every count is visible by the time a caller has its answer.
// A real failure is an error other than a cancellation, which
// Stats.Cancelled and the caller's own ctx already account for.
func (b *Batcher) runGroup(rep *replica, group []request) {
	start := time.Now()
	answers, poisoned := b.forward(rep, group)
	wall := time.Since(start)
	failed := 0
	for _, a := range answers {
		if a.err != nil && !errors.Is(a.err, context.Canceled) && !errors.Is(a.err, context.DeadlineExceeded) {
			failed++
		}
	}
	b.rec.ObserveBatch("serve-batch", wall, len(group))
	rep.note(wall, len(group), failed, poisoned)
	for j, r := range group {
		r.resp <- answers[j]
	}
}

// forward runs one group as a single forward on rep and returns each
// request's own one-item window of the answer. A group of one skips the copy
// and runs its request's own tensor under its own context; a coalesced
// forward serves several callers and so runs under none of theirs. Every
// backend call goes through detect.Guarded, so the worker survives any
// backend, and failure containment is the scheduler's poison-item
// isolation: a grouped forward that panics, errors, or returns a misaligned
// or corrupt answer is re-run item by item (poisoned is then true), so the
// one poison item fails alone — with its own error — while the rest of the
// batch still returns real results.
func (b *Batcher) forward(rep *replica, group []request) (answers []response, poisoned bool) {
	answers = make([]response, len(group))
	if len(group) == 1 {
		answers[0] = runOne(rep, group[0])
		return answers, false
	}
	sub := tensor.New(append([]int{len(group)}, group[0].x.Shape[1:]...)...)
	per := len(sub.Data) / len(group)
	for j, r := range group {
		copy(sub.Data[j*per:(j+1)*per], r.x.Data)
	}
	res, err := detect.Guarded(context.Background(), rep.backend, sub, group[0].conf)
	if err != nil {
		// Poison isolation: one member spoiled the shared forward (or the
		// backend misaligned the result mapping). Re-run each request on its
		// own so the failure lands only on the item that caused it.
		for j, r := range group {
			answers[j] = runOne(rep, r)
		}
		return answers, true
	}
	for j := range group {
		answers[j] = response{out: res[j : j+1 : j+1]}
	}
	return answers, false
}

// runOne runs one request's own tensor on rep under the request's own
// context.
func runOne(rep *replica, r request) response {
	out, err := detect.Guarded(r.ctx, rep.backend, r.x, r.conf)
	return response{out: out, err: err}
}
