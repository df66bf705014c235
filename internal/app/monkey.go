package app

import (
	"time"

	"repro/internal/a11y"
	"repro/internal/geom"
	"repro/internal/sim"
)

// Monkey drives random taps on the screen, the counterpart of the
// UI/Application Exerciser Monkey the paper uses to run each app for one
// minute when collecting screenshots and when evaluating end to end
// (Sections III-A and VI-C).
type Monkey struct {
	clock  *sim.Clock
	mgr    *a11y.Manager
	pkg    string
	ticker *sim.Ticker
}

// StartMonkey begins tapping random points every period (default 2s when
// zero) until stopped.
func StartMonkey(clock *sim.Clock, mgr *a11y.Manager, pkg string, period time.Duration) *Monkey {
	if period == 0 {
		period = 2 * time.Second
	}
	m := &Monkey{clock: clock, mgr: mgr, pkg: pkg}
	m.ticker = clock.NewTicker(period, m.tap)
	return m
}

// Stop halts the monkey.
func (m *Monkey) Stop() { m.ticker.Stop() }

func (m *Monkey) tap() {
	s := m.mgr.Screen()
	rng := m.clock.Rand()
	p := geom.Pt{X: rng.Intn(s.W), Y: rng.Intn(s.H)}
	if v := s.Click(p); v != nil {
		m.mgr.Emit(a11y.TypeViewClicked, m.pkg)
		// The app reacts to the tap with a short burst of content events.
		for i := 1; i <= 2; i++ {
			i := i
			m.clock.Schedule(time.Duration(i*120)*time.Millisecond, func() {
				m.mgr.Emit(a11y.TypeWindowContentChanged, m.pkg)
			})
		}
	}
}
