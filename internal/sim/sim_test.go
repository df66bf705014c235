package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	c := NewClock(1)
	var got []int
	c.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	c.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	c.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	c.Drain(10)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events fired in order %v, want %v", got, want)
		}
	}
	if c.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v after drain, want 30ms", c.Now())
	}
}

func TestEqualDeadlinesFIFO(t *testing.T) {
	c := NewClock(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	c.Drain(100)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-deadline events fired out of scheduling order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	c := NewClock(1)
	fired := false
	e := c.Schedule(time.Millisecond, func() { fired = true })
	e.Cancel()
	c.Drain(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Cancelling again is a no-op.
	e.Cancel()
}

func TestRunUntilAdvancesClock(t *testing.T) {
	c := NewClock(1)
	count := 0
	c.Schedule(10*time.Millisecond, func() { count++ })
	c.Schedule(200*time.Millisecond, func() { count++ })
	fired := c.RunUntil(100 * time.Millisecond)
	if fired != 1 || count != 1 {
		t.Fatalf("fired=%d count=%d, want 1,1", fired, count)
	}
	if c.Now() != 100*time.Millisecond {
		t.Fatalf("clock at %v, want 100ms", c.Now())
	}
	c.RunFor(200 * time.Millisecond)
	if count != 2 {
		t.Fatalf("count=%d after RunFor, want 2", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	c := NewClock(1)
	var seq []time.Duration
	c.Schedule(10*time.Millisecond, func() {
		seq = append(seq, c.Now())
		c.Schedule(5*time.Millisecond, func() { seq = append(seq, c.Now()) })
	})
	c.Drain(10)
	if len(seq) != 2 || seq[0] != 10*time.Millisecond || seq[1] != 15*time.Millisecond {
		t.Fatalf("nested scheduling times = %v", seq)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	c := NewClock(1)
	c.RunUntil(50 * time.Millisecond)
	fired := time.Duration(-1)
	c.Schedule(-10*time.Millisecond, func() { fired = c.Now() })
	c.Drain(10)
	if fired != 50*time.Millisecond {
		t.Fatalf("negative-delay event fired at %v, want 50ms (now)", fired)
	}
}

func TestTicker(t *testing.T) {
	c := NewClock(1)
	var ticks []time.Duration
	tk := c.NewTicker(100*time.Millisecond, func() { ticks = append(ticks, c.Now()) })
	c.RunUntil(350 * time.Millisecond)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	tk.Stop()
	c.RunUntil(time.Second)
	if len(ticks) != 3 {
		t.Fatalf("ticker fired after Stop: %v", ticks)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	c := NewClock(1)
	n := 0
	var tk *Ticker
	tk = c.NewTicker(10*time.Millisecond, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	c.RunUntil(time.Second)
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestDrainLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Drain did not panic on runaway loop")
		}
	}()
	c := NewClock(1)
	var loop func()
	loop = func() { c.Schedule(time.Millisecond, loop) }
	c.Schedule(time.Millisecond, loop)
	c.Drain(100)
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		c := NewClock(seed)
		var out []time.Duration
		for i := 0; i < 50; i++ {
			d := time.Duration(c.Rand().Intn(1000)) * time.Millisecond
			c.Schedule(d, func() { out = append(out, c.Now()) })
		}
		c.Drain(1000)
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, events fire in non-decreasing
// time order and the clock never moves backwards.
func TestPropertyMonotonicTime(t *testing.T) {
	prop := func(delays []uint16) bool {
		c := NewClock(7)
		var times []time.Duration
		for _, d := range delays {
			c.Schedule(time.Duration(d)*time.Millisecond, func() { times = append(times, c.Now()) })
		}
		c.Drain(len(delays) + 1)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewClock(1).Schedule(0, nil)
}

func TestNewTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTicker(0) did not panic")
		}
	}()
	NewClock(1).NewTicker(0, func() {})
}
