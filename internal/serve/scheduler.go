package serve

import "sync/atomic"

// This file is the scheduler layer: priority queues feeding batch formation.
// Admitted requests land in one of numPriorities channels; an idle replica
// worker calls take to claim the head request and collect to add whatever is
// already queued behind it. Dispatch is work-conserving: nothing ever waits
// for company, so a batch is exactly the backlog that built up while the
// replicas were busy. Grouping a formed batch by threshold and shape
// (groupRequests) is a pure function, extracted so batch-formation policy is
// unit-testable without goroutines.

// fairShare is the anti-starvation ratio: every fairShare-th take gives the
// batch-priority queue first refusal, so a sustained live-traffic flood
// cannot park audit work forever. Between those turns, live always preempts
// batch — the latency tier stays the latency tier.
const fairShare = 4

// scheduler owns the priority queues and the batch-size cap.
type scheduler struct {
	queues   [numPriorities]chan request
	maxBatch int
	takes    atomic.Int64
}

// newScheduler builds the queues; each priority gets the full buffer so one
// tier's backlog never blocks admission of the other.
func newScheduler(maxBatch, queueSize int) *scheduler {
	s := &scheduler{maxBatch: maxBatch}
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

// poll receives from q without blocking; ok is false when q is empty, or
// closed and drained.
func poll(q chan request) (r request, ok bool) {
	select {
	case r, ok = <-q:
	default:
	}
	return r, ok
}

// take blocks for the first request of a worker's next batch. It returns
// ok=false only when every queue is closed and drained. Live-priority work is
// preferred, except on fairness turns where the batch queue gets first
// refusal so it starves only statistically, never absolutely.
func (s *scheduler) take() (request, bool) {
	hi, lo := s.queues[PriorityLive], s.queues[PriorityBatch]
	preferred := hi
	if s.takes.Add(1)%fairShare == 0 {
		preferred = lo
	}
	if r, ok := poll(preferred); ok {
		return r, true
	}
	for hi != nil || lo != nil {
		// A closed, drained queue is nil-ed out so the select stops
		// spinning on it; the loop ends when both are gone.
		select {
		case r, ok := <-hi:
			if ok {
				return r, true
			}
			hi = nil
		case r, ok := <-lo:
			if ok {
				return r, true
			}
			lo = nil
		}
	}
	return request{}, false
}

// collect adds to first whatever is already queued, up to maxBatch, and
// never blocks: the live queue is drained before the batch queue, so a mixed
// backlog batches the latency tier ahead of the throughput tier, and an empty
// backlog is a batch of one.
func (s *scheduler) collect(first request) []request {
	batch := append(make([]request, 0, s.maxBatch), first)
	for _, q := range s.queues { // in priority order
		for len(batch) < s.maxBatch {
			r, ok := poll(q)
			if !ok {
				break
			}
			batch = append(batch, r)
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
