package detect

// The ensemble vote: the adversarial-robustness counterpart of the fallback
// chain. A fallback chain trusts the first healthy backend — exactly what an
// evasion attack exploits, because fooling the primary fools the stack. The
// vote instead runs every healthy backend on every screen and emits only
// detections that a quorum of *distinct* backends localised to the same box,
// so an attack has to fool backends with different failure modes (pixel CNN,
// region-proposal CNN, metadata heuristics) at once.
//
// The resilience contract matches the chain's: per-backend attempts are
// recovered and validated, a corrupt or panicking backend just loses its
// vote (and is outvoted by the rest), BreakAfter consecutive failures open
// its breaker for Cooldown calls with a half-open probe after, and context
// cancellation propagates without being charged to anyone's health. The
// breaker mutex is never held across an inference call, so one slow or
// deadlocked backend cannot wedge the vote accounting.

import (
	"context"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// VoteOptions tune WithMajorityVote. The zero value requires a majority of
// responding backends to agree at IoU >= 0.3, breaks a backend after 5
// consecutive failures for 32 calls, and uses default validation.
type VoteOptions struct {
	// Quorum is the number of distinct backends that must support a
	// detection. <= 0 means a majority of the backends that responded to
	// the call; the quorum never exceeds the responder count, so a vote
	// degrades to a passthrough when only one backend is healthy instead
	// of failing closed.
	Quorum int
	// IoU is the overlap at which two backends' same-class detections
	// count as the same object; <= 0 means 0.3 (loose, because backends
	// localise with different box conventions).
	IoU float64
	// BreakAfter is the consecutive-failure count that opens a backend's
	// breaker; <= 0 means 5.
	BreakAfter int
	// Cooldown is how many ensemble calls an open breaker sits out before
	// a half-open probe; <= 0 means 32.
	Cooldown int
	// Validate accepts a backend result; rejected results count as backend
	// failures (ErrCorruptResult). Nil means ValidDetections.
	Validate func([]metrics.Detection) bool
	// Timings, when non-nil, counts outvoted candidates under
	// "detect-vote-outvoted" and breaker trips under "detect-breaker-open".
	Timings *perfmodel.Timings
}

func (o VoteOptions) iou() float64 {
	if o.IoU <= 0 {
		return 0.3
	}
	return o.IoU
}

// quorum resolves the required supporter count for a call that responders
// backends answered.
func (o VoteOptions) quorum(responders int) int {
	q := o.Quorum
	if q <= 0 {
		q = responders/2 + 1
	}
	if q > responders {
		q = responders
	}
	if q < 1 {
		q = 1
	}
	return q
}

// VoteStats snapshots ensemble activity.
type VoteStats struct {
	// Calls counts inference calls into the ensemble.
	Calls int
	// Emitted counts detections that reached quorum.
	Emitted int
	// Outvoted counts candidate detections dropped for lack of quorum —
	// including corrupt backends' inventions outvoted by the rest.
	Outvoted int
	// AllFailed counts calls no backend could serve.
	AllFailed int
	// Backends holds each member's health, in constructor order.
	Backends []BackendHealth
}

// Ensemble runs every healthy backend and majority-votes the detections,
// each backend behind its circuit breaker (see breakers). Safe for concurrent
// use.
type Ensemble struct {
	breakers
	opts  VoteOptions
	stats VoteStats // guarded by breakers.mu
}

// WithMajorityVote builds the vote over the given backends. It panics when
// given no backends.
func WithMajorityVote(opts VoteOptions, backends ...Detector) *Ensemble {
	if len(backends) == 0 {
		panic("detect: WithMajorityVote requires at least one backend")
	}
	return &Ensemble{
		breakers: newBreakers(backends, opts.BreakAfter, opts.Cooldown, opts.Validate, opts.Timings),
		opts:     opts,
	}
}

// Name lists the members, e.g. "vote(yolite+rcnn+frauddroid)".
func (e *Ensemble) Name() string {
	names := make([]string, len(e.backends))
	for i, b := range e.backends {
		names[i] = b.Name()
	}
	return "vote(" + strings.Join(names, "+") + ")"
}

// Stats returns a snapshot of vote activity and per-backend health.
func (e *Ensemble) Stats() VoteStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Backends = e.snapshot()
	return st
}

func (e *Ensemble) note(fn func(*VoteStats)) {
	e.mu.Lock()
	fn(&e.stats)
	e.mu.Unlock()
}

// ballot is one backend's detection in a vote.
type ballot struct {
	det     metrics.Detection
	backend int
	used    bool
}

// vote clusters the responding backends' detections and emits one detection
// per cluster that a quorum of distinct backends supports. Candidates are
// visited best-score-first with deterministic tie-breaking; an emitted
// cluster consumes every overlapping same-class ballot, a rejected candidate
// consumes only itself (its supporters may still anchor their own cluster).
// Returns the emitted detections and the outvoted-candidate count.
func (e *Ensemble) vote(lists map[int][]metrics.Detection) ([]metrics.Detection, int) {
	q := e.opts.quorum(len(lists))
	iou := e.opts.iou()
	var ballots []ballot
	for backend, dets := range lists {
		for _, d := range dets {
			ballots = append(ballots, ballot{det: d, backend: backend})
		}
	}
	sort.Slice(ballots, func(a, b int) bool {
		x, y := ballots[a], ballots[b]
		if x.det.Score != y.det.Score {
			return x.det.Score > y.det.Score
		}
		if x.backend != y.backend {
			return x.backend < y.backend
		}
		if x.det.B.X != y.det.B.X {
			return x.det.B.X < y.det.B.X
		}
		if x.det.B.Y != y.det.B.Y {
			return x.det.B.Y < y.det.B.Y
		}
		return x.det.Class < y.det.Class
	})

	var out []metrics.Detection
	outvoted := 0
	for i := range ballots {
		if ballots[i].used {
			continue
		}
		cand := &ballots[i]
		supporters := map[int]bool{cand.backend: true}
		var cluster []int
		for j := range ballots {
			if j == i || ballots[j].used || ballots[j].det.Class != cand.det.Class {
				continue
			}
			if ballots[j].det.B.IoU(cand.det.B) >= iou {
				supporters[ballots[j].backend] = true
				cluster = append(cluster, j)
			}
		}
		cand.used = true
		if len(supporters) >= q {
			for _, j := range cluster {
				ballots[j].used = true
			}
			out = append(out, cand.det)
		} else {
			outvoted++
		}
	}
	return out, outvoted
}

// PredictBatchCtx runs each admitted backend over the whole batch once and
// votes per item, returning the agreed detections. A backend's error, panic,
// misaligned or corrupt answer removes its ballot from every item and is
// charged to its health; cancellation propagates immediately, charged to
// nobody.
func (e *Ensemble) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	e.note(func(s *VoteStats) { s.Calls++ })
	answers := make(map[int][][]metrics.Detection)
	var lastErr error
	for i := range e.backends {
		out, ran, err := e.try(ctx, i, x, conf)
		switch {
		case !ran && err != nil:
			return nil, err
		case !ran:
		case err != nil:
			lastErr = err
		default:
			answers[i] = out
		}
	}
	if len(answers) == 0 {
		e.note(func(s *VoteStats) { s.AllFailed++ })
		return nil, e.allFailed(lastErr)
	}
	result := make([][]metrics.Detection, batchLen(x))
	emitted, outvoted := 0, 0
	for item := range result {
		lists := make(map[int][]metrics.Detection, len(answers))
		for backend, out := range answers {
			lists[backend] = out[item]
		}
		dets, lost := e.vote(lists)
		result[item] = dets
		emitted += len(dets)
		outvoted += lost
	}
	e.note(func(s *VoteStats) {
		s.Emitted += emitted
		s.Outvoted += outvoted
	})
	if outvoted > 0 {
		e.rec.AddItems("detect-vote-outvoted", outvoted)
	}
	return result, nil
}
