package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the admission layer — the first of the three serving layers
// (admission → scheduler → replica pool). Every request entering the Batcher
// passes through exactly one admission decision before it may touch a queue:
// the tenant's token bucket is consulted first (rate limiting), then the
// scheduler's queue depth (load shedding). Rejecting here is deliberate
// back-pressure: a request the system cannot serve in time should fail in
// microseconds at the front door, with a typed error the caller can act on
// at once (back off and retry), not time out after riding a queue it was
// never going to clear.

// TenantID names one detection consumer — a device fleet, an audit pipeline,
// a store-scan worker. Requests carrying no tenant, or one the admission
// table does not list, are accounted to DefaultTenant.
type TenantID string

// DefaultTenant is the identity assumed for requests that carry none, and
// the one ledger entry shared by every tenant outside the admission table.
const DefaultTenant TenantID = "default"

// Priority orders the scheduler's queues. The zero value is PriorityLive, so
// untagged requests — the interactive path decorating a screen the user is
// looking at — get the low-latency queue by default.
type Priority int

const (
	// PriorityLive is the interactive tier: live screen decoration, where
	// added latency is visible to a user mid-interaction.
	PriorityLive Priority = iota
	// PriorityBatch is the throughput tier: store audits and batch scans,
	// which care about completion, not per-request latency.
	PriorityBatch
	numPriorities
)

// String renders the tier for logs and stats lines.
func (p Priority) String() string {
	switch p {
	case PriorityLive:
		return "live"
	case PriorityBatch:
		return "batch"
	}
	return "unknown"
}

// TenantInfo is the identity a request carries through its context.
type TenantInfo struct {
	ID       TenantID
	Priority Priority
}

// tenantKey is the context key for TenantInfo; unexported so only WithTenant
// can set it.
type tenantKey struct{}

// WithTenant attaches a tenant identity to ctx. The serving layer reads it at
// admission; everything between the caller and the Batcher passes it through
// untouched, so tenancy rides the same channel as cancellation.
func WithTenant(ctx context.Context, info TenantInfo) context.Context {
	return context.WithValue(ctx, tenantKey{}, info)
}

// TenantFrom extracts the tenant identity from ctx, defaulting to
// DefaultTenant at PriorityLive when none was attached.
func TenantFrom(ctx context.Context) TenantInfo {
	if info, ok := ctx.Value(tenantKey{}).(TenantInfo); ok {
		if info.ID == "" {
			info.ID = DefaultTenant
		}
		return info
	}
	return TenantInfo{ID: DefaultTenant, Priority: PriorityLive}
}

// TenantConfig sets one tenant's admission policy.
type TenantConfig struct {
	// Rate is the sustained admission rate in requests per second. Zero or
	// negative means unlimited — the bucket never empties. The bucket holds
	// max(1, Rate) tokens: that many requests may arrive back to back
	// before the rate limit bites.
	Rate float64
	// Priority assigns every request from this tenant to a scheduler queue,
	// overriding whatever the request's context carries — the operator's
	// tenant table outranks a caller self-declaring as interactive.
	Priority Priority
}

// TieredTenants is the admission table darpa-serve and the fleet simulator
// run: n tenants, tenant0 to tenant<n-1>, each limited to rate requests/sec
// (0 = unlimited). tenant0 is the interactive tier (PriorityLive), the rest
// the audit tier (PriorityBatch). ids lists each tenant's identity in that
// order, for callers that tag their own requests.
func TieredTenants(n int, rate float64) (table map[TenantID]TenantConfig, ids []TenantInfo) {
	table = make(map[TenantID]TenantConfig, n)
	for t := 0; t < n; t++ {
		info := TenantInfo{ID: TenantID(fmt.Sprintf("tenant%d", t)), Priority: PriorityBatch}
		if t == 0 {
			info.Priority = PriorityLive
		}
		table[info.ID] = TenantConfig{Rate: rate, Priority: info.Priority}
		ids = append(ids, info)
	}
	return table, ids
}

// Admission errors. All are terminal for the request at this layer; the
// HTTP front end answers ErrRateLimited 429 and the others 503, each with
// Retry-After.
var (
	// ErrRateLimited rejects a request whose tenant exhausted its token
	// bucket. Retrying immediately will fail again; the tenant must slow down.
	ErrRateLimited = errors.New("serve: tenant rate limit exceeded")
	// ErrOverloaded sheds a request because the scheduler's queues are at
	// MaxQueueDepth. Unlike ErrRateLimited this is global back-pressure —
	// any tenant's retry may succeed once the queues drain.
	ErrOverloaded = errors.New("serve: scheduler overloaded, request shed")
	// ErrClosed rejects a request that arrived after Close; the HTTP front
	// end answers it 503 "draining".
	ErrClosed = errors.New("serve: batcher closed")
)

// verdict is one admission decision.
type verdict int

const (
	admitted verdict = iota
	shed
	rejected
)

// TenantStats is one tenant's admission ledger.
type TenantStats struct {
	Offered  int // requests that reached admission
	Admitted int // requests that entered a scheduler queue
	Shed     int // requests dropped for global queue depth
	Rejected int // requests dropped by this tenant's rate limit
}

// AdmissionStats aggregates the admission layer's ledger: the totals are
// sums over Tenants. The invariant Offered == Admitted + Shed + Rejected
// holds at every snapshot — a request that reaches admission is counted
// exactly once, whatever its fate.
type AdmissionStats struct {
	Offered  int
	Admitted int
	Shed     int
	Rejected int
	Tenants  map[TenantID]TenantStats
}

// tenantState is one tenant's live token bucket.
type tenantState struct {
	cfg    TenantConfig
	tokens float64
	last   time.Time
	stats  TenantStats
}

// admission is the front-door layer: per-tenant token buckets plus global
// queue-depth shedding. All state sits behind one mutex — an admission
// decision is a few float ops, so the critical section is nanoseconds.
type admission struct {
	mu       sync.Mutex
	tenants  map[TenantID]*tenantState
	configs  map[TenantID]TenantConfig
	maxDepth int
	now      func() time.Time
}

// newAdmission builds the layer. A tenant absent from configs (nil is fine)
// is served as DefaultTenant, which unless configured has the zero
// TenantConfig: unlimited rate at the priority its requests carry.
// maxDepth <= 0 disables shedding; now is injectable for
// deterministic refill tests and defaults to time.Now.
func newAdmission(configs map[TenantID]TenantConfig, maxDepth int, now func() time.Time) *admission {
	if now == nil {
		now = time.Now
	}
	return &admission{
		tenants:  make(map[TenantID]*tenantState),
		configs:  configs,
		maxDepth: maxDepth,
		now:      now,
	}
}

// capacity is a config's bucket size, max(1, Rate).
func capacity(cfg TenantConfig) float64 { return max(1, cfg.Rate) }

// state returns the live bucket of a tenant whose policy is cfg, creating it
// full on first sight — a tenant's first burst is always admitted up to its
// capacity.
func (a *admission) state(id TenantID, cfg TenantConfig) *tenantState {
	if s, ok := a.tenants[id]; ok {
		return s
	}
	s := &tenantState{cfg: cfg, tokens: capacity(cfg), last: a.now()}
	a.tenants[id] = s
	return s
}

// decide runs one admission decision for a request from info against the
// current scheduler depth, updating the ledger. It returns the verdict and
// the priority queue the request belongs to (meaningful only when admitted).
//
// Tenant ids arrive from outside (httpd takes them from a request header, or
// from the bearer token itself), so only ids in the operator's table get a
// bucket, a ledger entry and a metrics label of their own. Every other id is
// accounted as DefaultTenant: state is bounded by the table, and a
// credential never becomes a label.
func (a *admission) decide(info TenantInfo, depth int) (verdict, Priority) {
	cfg, configured := a.configs[info.ID]
	if !configured {
		info.ID = DefaultTenant
		cfg, configured = a.configs[DefaultTenant]
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.state(info.ID, cfg)
	prio := info.Priority
	if configured {
		prio = cfg.Priority
	}
	if prio < 0 || prio >= numPriorities {
		prio = PriorityLive
	}
	s.stats.Offered++

	// Rate limit first: a tenant over its budget is rejected even when the
	// queues are empty, so one flooding tenant cannot convert spare global
	// capacity into a habit the other tenants then pay for under load.
	if s.cfg.Rate > 0 {
		now := a.now()
		s.tokens += now.Sub(s.last).Seconds() * s.cfg.Rate
		s.last = now
		s.tokens = min(s.tokens, capacity(s.cfg))
		if s.tokens < 1 {
			s.stats.Rejected++
			return rejected, prio
		}
		s.tokens--
	}

	// Then global depth: the queues are already longer than the system can
	// clear in bounded time, so shed now, while saying no is cheap.
	// The token consumed above is refunded: shedding is the *system's*
	// failure to keep up, not the tenant's overspend, and no forward will be
	// run for this request. Without the refund a tenant flooding into an
	// overloaded scheduler is later 429'd for requests that were 503'd —
	// charged rate budget for work never served.
	if a.maxDepth > 0 && depth >= a.maxDepth {
		if s.cfg.Rate > 0 {
			s.tokens++
			s.tokens = min(s.tokens, capacity(s.cfg))
		}
		s.stats.Shed++
		return shed, prio
	}
	s.stats.Admitted++
	return admitted, prio
}

// snapshot copies the ledger.
func (a *admission) snapshot() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := AdmissionStats{Tenants: make(map[TenantID]TenantStats, len(a.tenants))}
	for id, s := range a.tenants {
		out.Tenants[id] = s.stats
		out.Offered += s.stats.Offered
		out.Admitted += s.stats.Admitted
		out.Shed += s.stats.Shed
		out.Rejected += s.stats.Rejected
	}
	return out
}
