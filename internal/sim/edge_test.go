package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestCancelAtFireTimestamp: an event cancelled by another event firing at
// the very same virtual instant must not run — the fleet leans on this when
// an a11y event and the debounce timer it re-arms land on one timestamp.
func TestCancelAtFireTimestamp(t *testing.T) {
	c := NewClock(1)
	fired := false
	var victim *Event
	// Same deadline; the canceller was scheduled first, so FIFO order fires
	// it first and the victim must stay dead even though it is already due.
	c.Schedule(10*time.Millisecond, func() { victim.Cancel() })
	victim = c.Schedule(10*time.Millisecond, func() { fired = true })
	c.Drain(10)
	if fired {
		t.Fatal("event cancelled at its own fire timestamp still fired")
	}
	if c.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v, want 10ms", c.Now())
	}
}

// TestRunUntilInclusiveDeadline: an event at exactly the RunUntil deadline
// fires in that run — the boundary the fleet's end-of-run accounting
// depends on.
func TestRunUntilInclusiveDeadline(t *testing.T) {
	c := NewClock(1)
	fired := false
	c.Schedule(time.Second, func() { fired = true })
	if n := c.RunUntil(time.Second); n != 1 || !fired {
		t.Fatalf("RunUntil(1s) fired %d events (fired=%v), want the deadline event", n, fired)
	}
}

// TestDrainSchedulesNewEvents: events scheduled by events already inside
// Drain must themselves fire — Drain keeps going until the queue is truly
// empty, not just until the events that existed when it was called.
func TestDrainSchedulesNewEvents(t *testing.T) {
	c := NewClock(1)
	var order []string
	c.Schedule(time.Millisecond, func() {
		order = append(order, "a")
		c.Schedule(time.Millisecond, func() {
			order = append(order, "b")
			c.Schedule(time.Millisecond, func() { order = append(order, "c") })
		})
	})
	if n := c.Drain(10); n != 3 {
		t.Fatalf("Drain fired %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("chain fired as %v, want [a b c]", order)
	}
	if c.Now() != 3*time.Millisecond {
		t.Fatalf("clock at %v after chained drain, want 3ms", c.Now())
	}
}

// TestPropertySameTimestampFIFO: for any random mix of deadlines, events
// sharing a deadline fire in the order they were scheduled. This is the
// property TestEqualDeadlinesFIFO spot-checks, quick-checked across random
// schedules — it is what makes two same-seed fleet runs replay identically
// when thousands of device events collide on popular timestamps.
func TestPropertySameTimestampFIFO(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewClock(seed)
		count := int(n%64) + 2
		type fireRec struct {
			at  time.Duration
			seq int
		}
		var fired []fireRec
		for i := 0; i < count; i++ {
			i := i
			// Few distinct deadlines, so collisions are the norm.
			at := time.Duration(rng.Intn(8)) * time.Millisecond
			c.Schedule(at, func() { fired = append(fired, fireRec{at: c.Now(), seq: i}) })
		}
		c.Drain(count * 2)
		if len(fired) != count {
			return false
		}
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at {
				return false // time went backwards
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				return false // FIFO broken within a timestamp
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelInsideOwnTimestampBatch: several events on one timestamp where
// the middle one cancels the last; earlier cancellations must not disturb
// the surviving events' order.
func TestCancelInsideOwnTimestampBatch(t *testing.T) {
	c := NewClock(1)
	var got []int
	var e3 *Event
	c.Schedule(time.Millisecond, func() { got = append(got, 1) })
	c.Schedule(time.Millisecond, func() { got = append(got, 2); e3.Cancel() })
	e3 = c.Schedule(time.Millisecond, func() { got = append(got, 3) })
	c.Schedule(time.Millisecond, func() { got = append(got, 4) })
	c.Drain(10)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("fired %v, want [1 2 4]", got)
	}
}

// TestHeapPopsTheMinimum drives the hand-written heap with interleaved pushes
// and pops of random, heavily colliding deadlines and checks it against the
// definition: a pop is the (at, seq) minimum of the queue, every queued event
// knows its own slot, and a popped one knows it has left.
func TestHeapPopsTheMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewClock(1)
	var popped []*Event
	check := func() {
		t.Helper()
		for i, e := range c.queue {
			if e.index != i {
				t.Fatalf("queue[%d] records index %d", i, e.index)
			}
			if p := (i - 1) / 2; i > 0 && e.before(c.queue[p]) {
				t.Fatalf("queue[%d] (%v,%d) sorts before its parent (%v,%d)", i, e.at, e.seq, c.queue[p].at, c.queue[p].seq)
			}
		}
	}
	for round := 0; round < 200; round++ {
		for n := rng.Intn(8); n > 0; n-- {
			c.Schedule(time.Duration(rng.Intn(16))*time.Millisecond, func() {})
		}
		check()
		for n := rng.Intn(6); n > 0 && len(c.queue) > 0; n-- {
			// Popping by hand leaves the clock at zero, so a later push may
			// sort before an earlier pop; each pop must be the minimum of
			// what is queued at that moment.
			e := c.pop()
			if e.index != -1 {
				t.Fatalf("popped event still records index %d", e.index)
			}
			for _, q := range c.queue {
				if q.before(e) {
					t.Fatalf("popped (%v,%d) with (%v,%d) still queued", e.at, e.seq, q.at, q.seq)
				}
			}
			popped = append(popped, e)
			check()
		}
	}
	if len(popped) < 400 {
		t.Fatalf("only %d pops exercised", len(popped))
	}
}
