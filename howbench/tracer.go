package main

import (
	"fmt"
	"sort"
	"time"
)

// span is one benchmark-side interval around a call into the program.
// Spans of one op share the op's root span as parent.
type span struct {
	name       string
	parent     int // index of the causing span, -1 for a root
	start, end time.Duration
}

// tracer keeps a traced run's spans in memory; summary reports them
// when the run ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// record adds a finished root or child span that started at start and
// ends now.
func (t *tracer) record(name string, parent int, start time.Time) {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start.Sub(t.t0), end: time.Since(t.t0)})
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	count int
	durMS []float64 // per span
	self  time.Duration
}

// summary groups spans by name; a span's self time is its duration
// minus the durations of its child spans.
func (t *tracer) summary() map[string]*spanSummary {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*spanSummary{}
	for i, s := range t.spans {
		sum := out[s.name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.name] = sum
		}
		d := s.end - s.start
		sum.count++
		sum.durMS = append(sum.durMS, ms(d))
		sum.self += d - child[i]
	}
	return out
}

// print writes one line per span name: count, median and total wall,
// and total self time.
func (t *tracer) print(title string) {
	sums := t.summary()
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("spans (%s): %-20s %7s %12s %12s %12s\n", title, "name", "count", "p50_ms", "total_ms", "self_ms")
	for _, n := range names {
		s := sums[n]
		total := 0.0
		for _, d := range s.durMS {
			total += d
		}
		fmt.Printf("spans (%s): %-20s %7d %12.4f %12.3f %12.3f\n", title, n, s.count, median(s.durMS), total, ms(s.self))
	}
}
