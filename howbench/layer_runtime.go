package main

import (
	"runtime"
	"runtime/metrics"
)

// rtSnap is a snapshot of the Go runtime's cumulative allocation and
// GC counters; the difference of two snapshots measures the work
// between them.
type rtSnap struct {
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	pauseNS    uint64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() rtSnap {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		pauseNS:    ms.PauseTotalNs,
	}
}

func (a rtSnap) add(b rtSnap) rtSnap {
	return rtSnap{
		allocBytes: a.allocBytes + b.allocBytes,
		allocObjs:  a.allocObjs + b.allocObjs,
		gcCycles:   a.gcCycles + b.gcCycles,
		pauseNS:    a.pauseNS + b.pauseNS,
	}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{
		allocBytes: a.allocBytes - b.allocBytes,
		allocObjs:  a.allocObjs - b.allocObjs,
		gcCycles:   a.gcCycles - b.gcCycles,
		pauseNS:    a.pauseNS - b.pauseNS,
	}
}
