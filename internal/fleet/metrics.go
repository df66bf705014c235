package fleet

import (
	"repro/internal/metrics"
)

// Families renders the run ledger as metric families: the fleet's own
// counters first, then the serving stack's and the latency recorder's, so one
// WriteText/WriteJSON call captures the whole run — this is what darpa-sim
// dumps per run.
func (r *Result) Families() []metrics.Family {
	secs, v := r.Duration.Seconds(), r.Verdicts
	rps := 0.0
	if r.Wall > 0 {
		rps = float64(r.Analyses) / r.Wall.Seconds()
	}
	fams := []metrics.Family{
		metrics.Gauge("darpa_fleet_devices",
			"Simulated devices in the run.", metrics.V(float64(r.Devices))),
		metrics.Gauge("darpa_fleet_sim_seconds",
			"Simulated (virtual) run length.", metrics.V(secs)),
		metrics.Gauge("darpa_fleet_wall_seconds",
			"Real time the run took.", metrics.V(r.Wall.Seconds())),
		metrics.Counter("darpa_fleet_events_total",
			"Accessibility events across the fleet by fate.",
			metrics.L(float64(r.Events), "kind", "seen"),
			metrics.L(float64(r.Debounced), "kind", "debounced")),
		metrics.Counter("darpa_fleet_analyses_total",
			"Analysis cycles by outcome.",
			metrics.L(float64(r.Analyses), "outcome", "completed"),
			metrics.L(float64(r.Superseded), "outcome", "superseded"),
			metrics.L(float64(r.RateLimited), "outcome", "rate_limited"),
			metrics.L(float64(r.Shed), "outcome", "shed"),
			metrics.L(float64(r.Degraded), "outcome", "degraded")),
		metrics.Counter("darpa_fleet_verdicts_total",
			"Completed analyses by verdict (flagged: the analysis holds a UPO) against the truth of the screen analysed.",
			metrics.L(float64(v.AUIDetected), "verdict", "caught"),
			metrics.L(float64(v.NonAUIFlagged), "verdict", "false_alarm"),
			metrics.L(float64(v.AUIMissed), "verdict", "missed"),
			metrics.L(float64(v.NonAUIPassed), "verdict", "quiet")),
		metrics.Counter("darpa_fleet_popups_total",
			"AUI popups by fate: shown, caught by at least one flagged analysis, dismissed by auto-bypass.",
			metrics.L(float64(r.Popups), "kind", "shown"),
			metrics.L(float64(r.PopupsCaught), "kind", "caught"),
			metrics.L(float64(r.Bypassed), "kind", "bypassed")),
		metrics.Gauge("darpa_fleet_throughput_rps",
			"Completed analyses per wall-clock second.", metrics.V(rps)),
	}
	if r.CacheHits+r.CacheMisses > 0 {
		rate := float64(r.CacheHits) / float64(r.CacheHits+r.CacheMisses)
		fams = append(fams,
			metrics.Counter("darpa_cache_requests_total",
				"Analyses by who answered: the run's result table (hit), a leader already in the stack for the same screen (coalesced), or the stack (miss).",
				metrics.L(float64(r.CacheHits), "outcome", "hit"),
				metrics.L(float64(r.Coalesced), "outcome", "coalesced"),
				metrics.L(float64(r.CacheMisses), "outcome", "miss")),
			metrics.Gauge("darpa_cache_hit_rate",
				"Fraction of table lookups answered from the table.",
				metrics.V(rate)))
	}
	fams = append(fams, r.Serve.Families()...)
	if r.Timings != nil {
		fams = append(fams, r.Timings.Families()...)
	}
	return fams
}
