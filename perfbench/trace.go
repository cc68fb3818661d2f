package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into a layer, or an operation's root.
// Spans of one operation (query, request, cycle) share op; parent indexes the
// enclosing span (-1 for a root).
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration // offsets from the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs call the same code paths at no cost beyond a nil
// check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

// record adds an already-measured span (for intervals observed from outside
// a layer, such as a job's queue wait).
func (t *tracer) record(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval covered by its child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.end < s.start {
			continue // never closed: the operation failed mid-span
		}
		out[s.name] += s.end - s.start - covered(t.spans, children[i], s.start, s.end)
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.a > cur.b {
			total += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	return total + cur.b - cur.a
}

// rootTotal sums the durations of every root span named name.
func (t *tracer) rootTotal(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, s := range t.spans {
		if s.parent < 0 && s.name == name && s.end >= s.start {
			total += s.end - s.start
		}
	}
	return total
}
