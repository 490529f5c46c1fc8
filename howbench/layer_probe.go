package main

import (
	"io"

	"howsim/internal/probe"
)

// Only this file calls into the probe package: it makes sinks, renders
// their reports and reads their aggregates from outside.

// newSink returns an enabled sink with ringSpans units of the default
// span ring, the size howsimd gives a breakdown request.
func newSink(ringSpans int) *probe.Sink {
	return probe.NewSinkCap(ringSpans * probe.DefaultRingSpans)
}

// breakdownText renders the plain-text breakdown report of a run.
func breakdownText(sink *probe.Sink, task, machine string, elapsedNS int64) string {
	return sink.BuildReport(task, machine, probe.Time(elapsedNS)).Render()
}

// cellTotal is one (component, kind) aggregate summed over instances.
type cellTotal struct {
	dur, count, sum int64
}

// sinkTotals sums every cell of the sink by component and kind name:
// totals["disk"]["service"] covers every drive's service spans.
func sinkTotals(sink *probe.Sink, into map[string]map[string]cellTotal) {
	for i := 0; i < sink.Instances(); i++ {
		comp, _ := sink.Instance(i)
		byKind := into[comp]
		if byKind == nil {
			byKind = map[string]cellTotal{}
			into[comp] = byKind
		}
		for k := 0; k < sink.Kinds(); k++ {
			kind := probe.Kind(k)
			dur, count, sum := sink.Cell(i, kind)
			if count == 0 && dur == 0 && sum == 0 {
				continue
			}
			name := sink.KindName(kind)
			t := byKind[name]
			t.dur += dur
			t.count += count
			t.sum += sum
			byKind[name] = t
		}
	}
}

// schedEvents is the number of kernel events the sink counted.
func schedEvents(sink *probe.Sink) int64 {
	totals := map[string]map[string]cellTotal{}
	sinkTotals(sink, totals)
	return totals[probe.SchedComponent]["events"].sum
}

// spanStats returns the spans held in the ring and the spans dropped.
func spanStats(sink *probe.Sink) (held int, dropped int64) {
	return sink.SpansRecorded(), sink.Dropped()
}

// writeTrace renders the sink's Chrome trace into w.
func writeTrace(sink *probe.Sink, w io.Writer) error {
	return sink.WriteTrace(w)
}
