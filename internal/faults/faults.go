// Package faults is the deterministic fault-injection layer: a seeded Plan
// decides, per call, whether to inject an error, a latency spike, a
// corrupted result, or a panic, and the Detector wrapper applies those
// decisions at the detector seam. A plan counts the calls of every detector
// wrapped around it as one sequence; to fault two backends independently
// (say the primary and the fallback of a chain), give each its own plan.
// The layer exists so the resilience machinery (detect.WithRetry,
// detect.WithFallback, the Batcher's poison-item isolation, core's degraded
// mode) can be exercised end-to-end under failure rates the real fleet would
// see, with runs that replay exactly from a seed.
//
// Determinism contract: for a fixed seed and a fixed sequence of Decide
// calls, the injected fault sequence is identical run to run. Concurrent
// callers interleave their Decide calls nondeterministically, so a
// multi-goroutine run replays statistically (same rates, same totals within
// scheduling noise) rather than call-for-call; the chaos tests pin invariants
// that hold either way.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the error injected by Kind Error rules that carry no
// explicit error of their own. Resilience layers treat it like any other
// backend failure; tests recognise it with errors.Is.
var ErrInjected = errors.New("faults: injected error")

// Kind enumerates the failure modes the injector can produce.
type Kind int

const (
	// Error makes the faulted call return an error (ErrInjected unless the
	// rule carries its own).
	Error Kind = iota
	// Latency delays the call by the rule's Latency before running it
	// normally: a slow success, not a failure.
	Latency
	// Corrupt lets the call run and then damages its result (NaN boxes,
	// out-of-range scores), modelling a backend that returns garbage rather
	// than failing loudly.
	Corrupt
	// Panic makes the faulted call panic, modelling the in-process crash a
	// bad screen or a broken backend build would cause.
	Panic
	numKinds
)

var kindNames = [numKinds]string{"error", "latency", "corrupt", "panic"}

// String returns the kind's short name.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Rule describes one injector: which failure mode it produces and how
// often it fires.
type Rule struct {
	// Kind is the failure mode to inject.
	Kind Kind
	// Rate is the probability per call, drawn from the plan's seeded RNG.
	// Ignored when Every is set.
	Rate float64
	// Every, when positive, fires the rule deterministically on every Nth
	// call (calls N, 2N, 3N, ... of the plan) instead of sampling
	// Rate — the pattern-targeted mode for reproducing "every 37th screen
	// kills the backend" scenarios exactly.
	Every int
	// Latency is the injected delay for Latency rules.
	Latency time.Duration
	// Err overrides ErrInjected for Error rules.
	Err error
}

// Fault is one decided injection, ready to apply.
type Fault struct {
	Kind    Kind
	Latency time.Duration
	Err     error
}

// Plan decides fault injection deterministically from a seed. The zero
// value and the nil plan inject nothing. Safe for concurrent use.
type Plan struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []Rule
	calls    int
	injected [numKinds]int
}

// NewPlan builds a plan over the given rules. Rules are evaluated in order;
// the first one that fires wins the call.
func NewPlan(seed int64, rules ...Rule) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed)), rules: rules}
}

// Decide records one call and returns the fault to inject, if any. A nil
// plan never injects.
func (p *Plan) Decide() (Fault, bool) {
	if p == nil {
		return Fault{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	for _, r := range p.rules {
		fire := false
		if r.Every > 0 {
			fire = p.calls%r.Every == 0
		} else if r.Rate > 0 {
			fire = p.rng.Float64() < r.Rate
		}
		if !fire {
			continue
		}
		p.injected[r.Kind]++
		f := Fault{Kind: r.Kind, Latency: r.Latency, Err: r.Err}
		if f.Kind == Error && f.Err == nil {
			f.Err = ErrInjected
		}
		return f, true
	}
	return Fault{}, false
}

// Calls reports how many Decide calls the plan has seen. A nil plan has
// seen none.
func (p *Plan) Calls() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// Injected reports how many faults of the kind the plan has decided.
func (p *Plan) Injected(k Kind) int {
	if p == nil || k < 0 || k >= numKinds {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected[k]
}

// TotalInjected reports how many faults of any kind the plan has decided.
func (p *Plan) TotalInjected() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, n := range p.injected {
		total += n
	}
	return total
}

// String summarises injection activity for logs.
func (p *Plan) String() string {
	if p == nil {
		return "no fault plan"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("faults: %d calls, injected %d errors, %d latency spikes, %d corruptions, %d panics",
		p.calls, p.injected[Error], p.injected[Latency], p.injected[Corrupt], p.injected[Panic])
}
