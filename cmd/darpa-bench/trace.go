package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer's exported API. Spans of one request
// share Req; Parent is the index of the span that caused this one, -1 for a
// root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer's epoch
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing: the same replay code runs with and without spans, and the
// difference between the two is the tracing overhead the report states.
// Not safe for concurrent use; the traced pass has one caller.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, StartNS: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.epoch))
}

// timed records f as one span.
func (t *tracer) timed(name string, parent, req int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover (overlapping children are not counted twice).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, reach), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}
