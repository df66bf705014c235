package serve

import (
	"sync/atomic"
	"time"
)

// This file is the scheduler layer: priority queues feeding batch formation.
// Admitted requests land in one of numPriorities channels; replica workers
// call take to claim the first request of a batch and collect to coalesce
// followers until the batch is full or MaxDelay elapses. Grouping a formed
// batch by threshold and shape (groupRequests) is a pure function, extracted
// so batch-formation policy is unit-testable without goroutines or clocks.

// fairShare is the anti-starvation ratio: every fairShare-th take gives the
// batch-priority queue first refusal, so a sustained live-traffic flood
// cannot park audit work forever. Between those turns, live always preempts
// batch — the latency tier stays the latency tier.
const fairShare = 4

// scheduler owns the priority queues and the batch-formation knobs.
type scheduler struct {
	queues   [numPriorities]chan request
	maxBatch int
	maxDelay time.Duration
	takes    atomic.Int64
}

// newScheduler builds the queues; each priority gets the full buffer so one
// tier's backlog never blocks admission of the other.
func newScheduler(maxBatch int, maxDelay time.Duration, queueSize int) *scheduler {
	s := &scheduler{maxBatch: maxBatch, maxDelay: maxDelay}
	for i := range s.queues {
		s.queues[i] = make(chan request, queueSize)
	}
	return s
}

// depth reports the total number of queued requests across priorities — the
// load signal the admission layer sheds on.
func (s *scheduler) depth() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// close closes every queue; workers drain the remaining requests and exit.
func (s *scheduler) close() {
	for _, q := range s.queues {
		close(q)
	}
}

// take blocks for the first request of a worker's next batch. It returns
// ok=false only when every queue is closed and drained. Live-priority work is
// preferred, except on fairness turns where the batch queue gets first
// refusal so it starves only statistically, never absolutely.
func (s *scheduler) take() (request, bool) {
	hi, lo := s.queues[PriorityLive], s.queues[PriorityBatch]
	if s.takes.Add(1)%fairShare == 0 {
		select {
		case r, ok := <-lo:
			if ok {
				return r, true
			}
			lo = nil
		default:
		}
	} else {
		select {
		case r, ok := <-hi:
			if ok {
				return r, true
			}
			hi = nil
		default:
		}
	}
	for {
		if hi == nil && lo == nil {
			return request{}, false
		}
		// A closed, drained queue is nil-ed out so the select stops
		// spinning on it; the loop ends when both are gone.
		select {
		case r, ok := <-hi:
			if !ok {
				hi = nil
				continue
			}
			return r, true
		case r, ok := <-lo:
			if !ok {
				lo = nil
				continue
			}
			return r, true
		}
	}
}

// collect coalesces followers onto first until the batch is full or MaxDelay
// elapses. Within the window live requests are drained preferentially; batch
// requests fill whatever room remains.
func (s *scheduler) collect(first request) []request {
	batch := append(make([]request, 0, s.maxBatch), first)
	timer := time.NewTimer(s.maxDelay)
	defer timer.Stop()
	hi, lo := s.queues[PriorityLive], s.queues[PriorityBatch]
	for len(batch) < s.maxBatch {
		// First refusal to the live queue each slot, so a mixed window
		// batches the latency tier ahead of the throughput tier.
		select {
		case r, ok := <-hi:
			if ok {
				batch = append(batch, r)
				continue
			}
			hi = nil
		default:
		}
		if hi == nil && lo == nil {
			break
		}
		// A closed, drained queue is nil, and a nil channel is never ready,
		// so one select serves whichever queues remain.
		select {
		case r, ok := <-hi:
			if !ok {
				hi = nil
				continue
			}
			batch = append(batch, r)
		case r, ok := <-lo:
			if !ok {
				lo = nil
				continue
			}
			batch = append(batch, r)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// groupRequests splits a formed batch into homogeneous groups: one forward
// carries one confidence threshold, and heterogeneous screens cannot share a
// tensor. Order within the batch is preserved inside each group. Pure
// function — batch-formation policy with no scheduler state.
func groupRequests(batch []request) [][]request {
	var groups [][]request
	for len(batch) > 0 {
		// group gets its own array: the in-place tail filter below reuses
		// batch's backing array, which an aliased append would clobber.
		group := append(make([]request, 0, len(batch)), batch[0])
		rest := batch[1:]
		tail := batch[1:1]
		for _, r := range rest {
			if r.conf == group[0].conf && sameItemShape(r, group[0]) {
				group = append(group, r)
			} else {
				tail = append(tail, r)
			}
		}
		groups = append(groups, group)
		batch = tail
	}
	return groups
}

// sameItemShape reports whether two requests' per-item tensors agree in
// every non-batch dimension.
func sameItemShape(a, c request) bool {
	if len(a.x.Shape) != len(c.x.Shape) {
		return false
	}
	for i := 1; i < len(a.x.Shape); i++ {
		if a.x.Shape[i] != c.x.Shape[i] {
			return false
		}
	}
	return true
}
