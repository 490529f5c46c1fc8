package main

import (
	"runtime"
	"time"
)

// The layer ladder: benchmark-owned rungs, each calling one layer's
// public functions on a fresh kernel, at the workload's disk count and
// request sizes. A rung's self time is its wall time minus the events
// it dispatched times the kernel's own cost per event, so what remains
// is the layer's work above the kernel.

// ladderReps is how many timed runs a rung makes; it reports the
// median.
const ladderReps = 3

// ladderParams sizes the ladder for one workload.
type ladderParams struct {
	disks     int   // the workload's middle disk count
	reqBytes  int64 // mean disk request, from the traced run
	xferBytes int64 // mean interconnect transfer, from the traced run
	cycles    int64 // mean compute burst, from the traced run
	xio       bool  // the SMP's XIO bus instead of the FC-AL loop
}

// rungResult is one rung's measurement per layer operation.
type rungResult struct {
	selfNS float64 // self time per operation
	allocs float64 // heap objects allocated per operation
	events float64 // kernel events per operation
}

// measureRung counts the rung's events once with a probe sink, then
// times ladderReps bare runs of n operations.
func measureRung(body rungBody, n int, nsPerEvent float64) rungResult {
	events := rungEvents(body, n)
	walls := make([]float64, 0, ladderReps)
	allocs := make([]float64, 0, ladderReps)
	for rep := 0; rep < ladderReps; rep++ {
		timeRung(body, n, func(run func()) {
			runtime.GC()
			before := readRuntime()
			t0 := time.Now()
			run()
			walls = append(walls, float64(time.Since(t0)))
			allocs = append(allocs, float64(readRuntime().sub(before).allocObjs))
		})
	}
	self := median(walls) - float64(events)*nsPerEvent
	return rungResult{
		selfNS: self / float64(n),
		allocs: median(allocs) / float64(n),
		events: float64(events) / float64(n),
	}
}

// runLadder measures every rung and returns the per-layer metrics.
func runLadder(p ladderParams) map[string]metric {
	out := map[string]metric{}
	ev := measureRung(eventChain, 200000, 0)
	nsPerEvent := ev.selfNS / ev.events
	out["sim.ns_per_event"] = metric{nsPerEvent, "ns"}
	out["sim.allocs_per_event"] = metric{ev.allocs / ev.events, "count"}

	// Parks and callback hops are kernel work themselves: nothing lies
	// below them to subtract.
	park := measureRung(parkLoop, 50000, 0)
	out["sim.ns_per_park"] = metric{park.selfNS, "ns"}
	cb := measureRung(callbackPingPong, 100000, 0)
	out["sim.ns_per_callback"] = metric{cb.selfNS, "ns"}

	d := measureRung(diskRequests(p.reqBytes), 10000, nsPerEvent)
	out["disk.ns_per_request"] = metric{d.selfNS, "ns"}
	out["disk.allocs_per_request"] = metric{d.allocs, "count"}

	b := measureRung(busTransfers(p.xio, p.disks, p.xferBytes), 10000, nsPerEvent)
	out["bus.ns_per_transfer"] = metric{b.selfNS, "ns"}

	msg := measureRung(netMessages(p.disks, p.xferBytes), 2000, nsPerEvent)
	out["netsim.ns_per_message"] = metric{msg.selfNS, "ns"}
	out["netsim.allocs_per_message"] = metric{msg.allocs, "count"}
	isend := measureRung(mpiIsends(p.disks, p.xferBytes), 2000, nsPerEvent)
	out["mpi.ns_per_isend"] = metric{isend.selfNS, "ns"}
	ar := measureRung(mpiAllReduces(p.disks), 200, nsPerEvent)
	out["mpi.ns_per_allreduce"] = metric{ar.selfNS, "ns"}

	sr := measureRung(smpStripeReads(p.disks), 1000, nsPerEvent)
	out["smp.ns_per_stripe_read"] = metric{sr.selfNS, "ns"}
	rq := measureRung(smpRemoteEnqueues(p.disks, p.xferBytes), 10000, nsPerEvent)
	out["smp.ns_per_remote_enqueue"] = metric{rq.selfNS, "ns"}

	send := measureRung(diskosSends(p.disks), 5000, nsPerEvent)
	out["diskos.ns_per_send"] = metric{send.selfNS, "ns"}
	chunk := measureRung(diskosChunks(p.disks), 5000, nsPerEvent)
	out["diskos.ns_per_chunk"] = metric{chunk.selfNS, "ns"}

	c := measureRung(cpuComputes(p.cycles), 50000, nsPerEvent)
	out["cpu.ns_per_compute"] = metric{c.selfNS, "ns"}
	return out
}

// setupCosts times the per-run set-up layers for a workload's ops:
// building each machine, normalizing each request and parsing each
// fault plan. Each figure is the median of ladderReps rounds.
func setupCosts(ops []op) map[string]metric {
	type build struct {
		arch  string
		disks int
	}
	var builds []build
	seen := map[build]bool{}
	var plans []string
	seenPlan := map[string]bool{}
	for _, o := range ops {
		b := build{o.Arch, o.Disks}
		if !seen[b] {
			seen[b] = true
			builds = append(builds, b)
		}
		if o.Faults != "" && !seenPlan[o.Faults] {
			seenPlan[o.Faults] = true
			plans = append(plans, o.Faults)
		}
	}
	var buildMS, buildAllocs, normUS, parseUS []float64
	for rep := 0; rep < ladderReps; rep++ {
		before := readRuntime()
		t0 := time.Now()
		for _, b := range builds {
			buildMachine(b.arch, b.disks)
		}
		buildMS = append(buildMS, ms(time.Since(t0))/float64(len(builds)))
		buildAllocs = append(buildAllocs, float64(readRuntime().sub(before).allocObjs)/float64(len(builds)))

		t0 = time.Now()
		if _, err := normalizeAll(ops); err != nil {
			panic(err) // the same ops normalized during set-up
		}
		normUS = append(normUS, float64(time.Since(t0).Nanoseconds())/1e3/float64(len(ops)))

		const parses = 200
		t0 = time.Now()
		for i := 0; i < parses; i++ {
			for _, s := range plans {
				if err := parsePlan(s); err != nil {
					panic(err) // the same plans normalized during set-up
				}
			}
		}
		if len(plans) > 0 {
			parseUS = append(parseUS, float64(time.Since(t0).Nanoseconds())/1e3/float64(parses*len(plans)))
		}
	}
	return map[string]metric{
		"arch.build_ms":          {median(buildMS), "ms"},
		"arch.build_allocs":      {median(buildAllocs), "count"},
		"runconfig.normalize_us": {median(normUS), "us"},
		"fault.parse_us":         {median(parseUS), "us"},
	}
}
