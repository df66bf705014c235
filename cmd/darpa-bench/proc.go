package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHz is the unit of the utime/stime fields of /proc/<pid>/stat. The
// kernel reports them in USER_HZ, which is 100 on every Linux ABI Go runs on.
const userHz = 100

// procCPUSeconds returns the user+system CPU time pid has consumed, over all
// its threads.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(raw)
}

// parseStatCPU reads utime+stime (fields 14 and 15) out of a /proc/<pid>/stat
// line. The command name (field 2) may itself contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseStatCPU(raw []byte) (float64, error) {
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", raw)
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state), so utime is f[11] and stime f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", raw)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in %q", raw)
	}
	return float64(ut+st) / userHz, nil
}

// procPeakRSSMiB returns VmHWM, the high-water mark of pid's resident set.
func procPeakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(raw)
}

func parseVmHWM(raw []byte) (float64, error) {
	for _, line := range strings.Split(string(raw), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// boxCPUSeconds reads the whole machine's CPU clocks from the first line of
// /proc/stat: the time its processors ran anything at all, and the time they
// had something to run while the hypervisor ran someone else (steal).
func boxCPUSeconds() (busy, stolen float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseStatBox(raw)
}

// parseStatBox reads the "cpu" line: user nice system idle iowait irq softirq
// steal, in USER_HZ. Busy is everything but idle, iowait and steal.
func parseStatBox(raw []byte) (busy, stolen float64, err error) {
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat line %q", line)
	}
	var v [8]float64
	for i := range v {
		n, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("malformed /proc/stat line %q", line)
		}
		v[i] = float64(n) / userHz
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// usage is one reading of a process's CPU clock and of the machine's, taken
// together with the number of operations the workload had completed by then.
type usage struct {
	at      time.Time
	cpuS    float64
	ops     int
	busyS   float64 // machine-wide, see boxCPUSeconds
	stolenS float64
}

// usageLog collects usage readings about a window apart, so that every timing
// can be worked out per window and set against the steal of that same window
// (see atZeroSteal). One goroutine reads; the results are looked at once it
// has finished.
type usageLog struct {
	pid int
	ops func() int // completed operations so far

	readings []usage
	err      error
}

// read appends one reading. A nil log reads nothing.
func (u *usageLog) read() {
	if u == nil {
		return
	}
	cpu, err := procCPUSeconds(u.pid)
	if err != nil {
		u.err = err
		return
	}
	busy, stolen, err := boxCPUSeconds()
	if err != nil {
		u.err = err
		return
	}
	u.readings = append(u.readings, usage{at: time.Now(), cpuS: cpu, ops: u.ops(), busyS: busy, stolenS: stolen})
}

// every reads once per window until stop is closed, then once more. For
// workloads that run inside one long call the harness cannot tick from.
func (u *usageLog) every(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(window)
	defer t.Stop()
	for {
		u.read()
		select {
		case <-t.C:
		case <-stop:
			u.read()
			return
		}
	}
}

// usageWindow is what happened between two consecutive readings.
type usageWindow struct {
	from, to   time.Time
	cpuMSPerOp float64 // the process's CPU time per operation completed
	opsPerS    float64
	stretch    float64   // ln(1 + stolen/busy): how far steal stretched the machine's CPU work
	latMS      []float64 // filled in by phase.windows
}

func (w usageWindow) cpu() float64  { return w.cpuMSPerOp }
func (w usageWindow) rate() float64 { return w.opsPerS }

// windows returns every window in which operations completed.
func (u *usageLog) windows() ([]usageWindow, error) {
	if u.err != nil {
		return nil, u.err
	}
	var out []usageWindow
	for i := 1; i < len(u.readings); i++ {
		a, b := u.readings[i-1], u.readings[i]
		dt := b.at.Sub(a.at)
		// A reading that follows its predecessor closely (the closing one of
		// a phase) makes a window too short for the 10 ms CPU clocks.
		n := b.ops - a.ops
		if n <= 0 || dt < window/2 {
			continue
		}
		w := usageWindow{from: a.at, to: b.at, cpuMSPerOp: (b.cpuS - a.cpuS) * 1000 / float64(n), opsPerS: float64(n) / dt.Seconds()}
		if busy := b.busyS - a.busyS; busy > 0 {
			w.stretch = math.Log1p((b.stolenS - a.stolenS) / busy)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no window with completed operations")
	}
	return out, nil
}
