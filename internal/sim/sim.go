// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every time-dependent component of the reproduction (simulated apps, the
// accessibility event bus, the DARPA runtime, the device performance model)
// runs on a sim.Clock instead of the wall clock. This makes the timing
// experiments of the paper (the cut-off interval sweep of Table VIII and
// Figure 8) exactly reproducible and fast: simulated minutes elapse in
// microseconds of real time.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Event is a scheduled callback. The zero value is not useful; events are
// created through Clock.Schedule and friends.
type Event struct {
	at     time.Duration
	seq    uint64
	fn     func()
	index  int // heap index, -1 when popped or cancelled
	cancel bool
}

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.cancel = true
	}
}

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancel }

// before is the heap order, (at, seq): equal deadlines fire in scheduling
// order, and since seq is unique the order is total — pop order does not
// depend on how the heap happens to be laid out.
func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// push sifts e up from the tail of the binary min-heap c.queue. The heap is
// written out on []*Event: at a fleet-sized queue container/heap's interface
// dispatch per comparison and swap was most of a pop.
func (c *Clock) push(e *Event) {
	c.queue = append(c.queue, e)
	q := c.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = e
	e.index = i
}

// pop removes the earliest event and sifts the tail down from the root.
func (c *Clock) pop() *Event {
	q := c.queue
	n := len(q) - 1
	top := q[0]
	e := q[n] // the tail, to be re-seated from the root down
	q[n] = nil
	c.queue = q[:n]
	top.index = -1
	if n == 0 {
		return top
	}
	i := 0
	for {
		k := 2*i + 1 // the earlier of i's children
		if k+1 < n && q[k+1].before(q[k]) {
			k++
		}
		if k >= n || !q[k].before(e) {
			break
		}
		q[i] = q[k]
		q[i].index = i
		i = k
	}
	q[i] = e
	e.index = i
	return top
}

// Clock is a virtual clock with an event queue. It is not safe for
// concurrent use: the whole simulation is single-threaded and deterministic
// by design (see the package comment).
type Clock struct {
	now   time.Duration
	seq   uint64
	queue []*Event // binary min-heap on (at, seq)
	rng   *rand.Rand
}

// NewClock returns a clock at time zero whose derived randomness is seeded
// with seed.
func NewClock(seed int64) *Clock {
	return &Clock{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time as an offset from the start of the
// simulation.
func (c *Clock) Now() time.Duration { return c.now }

// Rand returns the clock's deterministic random source. Components that need
// randomness should draw from it (or from a source derived from it) so that a
// run is fully determined by the clock seed.
func (c *Clock) Rand() *rand.Rand { return c.rng }

// Schedule runs fn once after delay. It returns the pending event, which the
// caller may Cancel. A negative delay is treated as zero (fire at the next
// Step).
func (c *Clock) Schedule(delay time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	if delay < 0 {
		delay = 0
	}
	c.seq++
	e := &Event{at: c.now + delay, seq: c.seq, fn: fn}
	c.push(e)
	return e
}

// Pending returns the number of events waiting in the queue, including
// cancelled events that have not been reaped yet.
func (c *Clock) Pending() int { return len(c.queue) }

// Step fires the single earliest pending event, advancing the clock to its
// deadline. It reports whether an event fired (false when the queue is
// empty). Cancelled events are skipped without being counted.
func (c *Clock) Step() bool {
	for len(c.queue) > 0 {
		e := c.pop()
		if e.cancel {
			continue
		}
		if e.at < c.now {
			panic(fmt.Sprintf("sim: event scheduled at %v fired at %v", e.at, c.now))
		}
		c.now = e.at
		e.fn()
		return true
	}
	return false
}

// RunUntil processes events until the queue is exhausted or the next event
// is after deadline, then advances the clock to deadline. It returns the
// number of events fired.
func (c *Clock) RunUntil(deadline time.Duration) int {
	fired := 0
	for len(c.queue) > 0 {
		// Peek at the earliest non-cancelled event.
		e := c.queue[0]
		if e.cancel {
			c.pop()
			continue
		}
		if e.at > deadline {
			break
		}
		c.Step()
		fired++
	}
	if c.now < deadline {
		c.now = deadline
	}
	return fired
}

// RunFor is RunUntil(Now()+d).
func (c *Clock) RunFor(d time.Duration) int { return c.RunUntil(c.now + d) }

// Drain processes every pending event (including ones scheduled while
// draining) up to a safety limit, and returns the number fired. It panics if
// the limit is exceeded, which indicates a runaway self-scheduling loop.
func (c *Clock) Drain(limit int) int {
	fired := 0
	for c.Step() {
		fired++
		if fired > limit {
			panic("sim: Drain exceeded event limit; self-scheduling loop?")
		}
	}
	return fired
}

// Ticker repeatedly invokes a function at a fixed simulated period until
// stopped.
type Ticker struct {
	clock  *Clock
	period time.Duration
	fn     func()
	ev     *Event
	stop   bool
}

// NewTicker schedules fn every period, first firing one period from now.
// Period must be positive.
func (c *Clock) NewTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker period must be positive")
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.clock.Schedule(t.period, func() {
		if t.stop {
			return
		}
		t.fn()
		if !t.stop {
			t.arm()
		}
	})
}

// Stop cancels future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stop = true
	t.ev.Cancel()
}
