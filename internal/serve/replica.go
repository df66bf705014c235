package serve

import (
	"sync"
	"time"

	"repro/internal/detect"
)

// This file is the replica-pool layer: N independently-owned model instances,
// each driven by its own worker goroutine (and each arriving with its own
// tensor.Pool for its head maps from detect.Build; the intermediates of
// every forward recycle process-wide). Each replica keeps its own health
// ledger; a replica whose
// forwards fail consecutively is benched for a cooldown, the pool-level
// analogue of the per-backend circuit breakers in detect.WithFallback: the
// breaker decides whether a *backend* is trusted at all, benching decides
// whether one *copy* of a trusted backend deserves traffic right now.

// Replica-health constants; benching is off for a single-replica pool.
const (
	// replicaBenchAfter is how many consecutive fully-failed groups bench a
	// replica.
	replicaBenchAfter = 5
	// replicaBenchFor is how long a benched replica sits out.
	replicaBenchFor = 50 * time.Millisecond
)

// ReplicaStats is one replica's health and utilisation ledger.
type ReplicaStats struct {
	ID          int
	Batches     int           // groups this replica ran
	Items       int           // requests it answered
	Failed      int           // requests answered with a non-cancellation error
	Poisoned    int           // grouped forwards re-run item by item
	Busy        time.Duration // wall time spent in forwards
	Consecutive int           // current consecutive fully-failed groups
	Benched     bool          // sitting out a cooldown right now
	BenchTrips  int           // times this replica has been benched
}

// replica is one model instance plus its health state.
type replica struct {
	id      int
	backend detect.Detector

	benchAfter int           // consecutive failed groups before benching; <=0 disables
	benchFor   time.Duration // cooldown length

	mu           sync.Mutex
	stats        ReplicaStats
	benchedUntil time.Time
}

// newReplica wires one backend into the pool.
func newReplica(id int, backend detect.Detector, benchAfter int, benchFor time.Duration) *replica {
	r := &replica{
		id:         id,
		backend:    backend,
		benchAfter: benchAfter,
		benchFor:   benchFor,
	}
	r.stats.ID = id
	return r
}

// note folds one executed group into the health ledger. A group counts as
// failed only when every member errored non-cancelled — a single poison item
// says nothing about the replica, but a whole group failing repeatedly says
// the instance (its weights, its memory, its accelerator) is sick.
func (r *replica) note(wall time.Duration, items, failed int, poisoned bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Batches++
	r.stats.Items += items
	r.stats.Failed += failed
	r.stats.Busy += wall
	if poisoned {
		r.stats.Poisoned++
	}
	if failed == items && items > 0 {
		r.stats.Consecutive++
		if r.benchAfter > 0 && r.stats.Consecutive >= r.benchAfter {
			r.benchedUntil = time.Now().Add(r.benchFor)
			r.stats.BenchTrips++
			r.stats.Consecutive = 0
		}
	} else {
		r.stats.Consecutive = 0
	}
}

// waitBench blocks while the replica serves out a bench cooldown. Requests
// keep flowing: the scheduler's queues are shared, so a benched replica's
// work lands on its healthy peers for the duration. The sleep wakes early
// when stop closes — a pool shutting down must not wait out a cooldown, it
// needs every worker draining the queues so Close returns promptly.
func (r *replica) waitBench(stop <-chan struct{}) {
	r.mu.Lock()
	until := r.benchedUntil
	r.stats.Benched = time.Now().Before(until)
	benched := r.stats.Benched
	r.mu.Unlock()
	if !benched {
		return
	}
	t := time.NewTimer(time.Until(until))
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	}
	r.mu.Lock()
	r.stats.Benched = false
	r.mu.Unlock()
}

// snapshot copies the ledger.
func (r *replica) snapshot() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
