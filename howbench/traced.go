package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"howsim/internal/probe"
)

// The traced run: the workload's op list once with tracing off (the
// baseline), once with an enabled probe sink attached to every
// simulation (the per-component counts, read from outside), then the
// layer ladder and the set-up costs. Benchmark-side spans time every
// call into the program in both passes.

// layerAcc sums what the traced pass's sinks recorded.
type layerAcc struct {
	totals   map[string]map[string]cellTotal
	sims     int // simulations that ran with a sink
	spans    int64
	dropped  int64
	reportMS []float64
	traceMS  []float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{totals: map[string]map[string]cellTotal{}}
}

// add folds one simulation's sink in, timing its breakdown report and
// its Chrome trace export.
func (a *layerAcc) add(sink *probe.Sink, s *spec, elapsedNS int64) error {
	sinkTotals(sink, a.totals)
	held, dropped := spanStats(sink)
	a.sims++
	a.spans += int64(held) + dropped
	a.dropped += dropped
	t0 := time.Now()
	breakdownText(sink, s.task, s.machine, elapsedNS)
	a.reportMS = append(a.reportMS, ms(time.Since(t0)))
	t0 = time.Now()
	if err := writeTrace(sink, io.Discard); err != nil {
		return err
	}
	a.traceMS = append(a.traceMS, ms(time.Since(t0)))
	return nil
}

func (a *layerAcc) get(comp, kind string) cellTotal { return a.totals[comp][kind] }

// perSim divides a total by the simulations traced.
func (a *layerAcc) perSim(v int64) float64 { return float64(v) / float64(a.sims) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ladderFrom sizes the ladder from what the workload's simulations did.
func (a *layerAcc) ladderFrom(disks int, xio bool) ladderParams {
	p := ladderParams{disks: disks, xio: xio, reqBytes: 64 << 10, xferBytes: 64 << 10, cycles: 100000}
	if svc := a.get("disk", "service"); svc.count > 0 {
		if r := svc.sum / svc.count / sectorSize * sectorSize; r > 0 {
			p.reqBytes = r
		}
	}
	if x := a.get("link", "xfer"); x.count > 0 && x.sum/x.count > 0 {
		p.xferBytes = x.sum / x.count
	}
	if c := a.get("cpu", "compute"); c.count > 0 && c.sum/c.count > 0 {
		p.cycles = c.sum / c.count
	}
	return p
}

// countMetrics are the per-op counts read from the sinks.
func (a *layerAcc) countMetrics() map[string]metric {
	sched := probe.SchedComponent
	return map[string]metric{
		"sim.events_per_op":             {a.perSim(a.get(sched, "events").sum), "count"},
		"sim.parks_per_op":              {a.perSim(a.get(sched, "parks").sum), "count"},
		"sim.wakes_per_op":              {a.perSim(a.get(sched, "wakes").sum), "count"},
		"sim.handoffs_per_op":           {a.perSim(a.get(sched, "handoffs").sum), "count"},
		"disk.requests_per_op":          {a.perSim(a.get("disk", "service").count), "count"},
		"disk.cache_hit_frac":           {ratio(float64(a.get("disk", "cache_hit").sum), float64(a.get("disk", "service").sum)), "ratio"},
		"disk.retries_per_op":           {a.perSim(a.get("disk", "retry").sum), "count"},
		"link.bytes_per_op":             {a.perSim(a.get("link", "bytes").sum), "bytes"},
		"link.stalls_per_op":            {a.perSim(a.get("link", "stall").count), "count"},
		"link.drops_per_op":             {a.perSim(a.get("link", "drop").sum), "count"},
		"diskos.chunks_per_op":          {a.perSim(a.get("diskos", "chunk").sum), "count"},
		"cpu.compute_per_op":            {a.perSim(a.get("cpu", "compute").count), "count"},
		"recovery.rebuild_bytes_per_op": {a.perSim(a.get("recovery", "rebuild_read").sum), "bytes"},
		"probe.spans_per_op":            {a.perSim(a.spans), "count"},
		"probe.dropped_spans":           {float64(a.dropped), "count"},
		"probe.report_ms":               {median(a.reportMS), "ms"},
		"probe.trace_ms":                {median(a.traceMS), "ms"},
	}
}

// passResult is one pass over a list of specs.
type passResult struct {
	wall   time.Duration // sum of the ops' tasks.run + render time
	failed int
	rt     rtSnap // runtime work of the whole pass
}

// pairedPass runs every spec twice in a row, directly and checked
// against the goldens: once bare (base) and once with its own enabled
// sink (probed), folded into acc. Interleaving the two keeps host
// drift out of their ratio.
func pairedPass(ctx context.Context, specs []*spec, g goldens, tr *tracer, acc *layerAcc) (base, probed passResult, err error) {
	one := func(s *spec, sink *probe.Sink, root string, pr *passResult) (int64, bool) {
		id := tr.begin(root, -1)
		t0 := time.Now()
		body, elapsedNS, err := direct(ctx, s, sink, tr, id)
		pr.wall += time.Since(t0)
		tr.end(id)
		if err == nil {
			err = g.check(s, body)
		}
		if err != nil {
			pr.failed++
			fmt.Println("howbench: traced op failed:", err)
			return 0, false
		}
		return elapsedNS, true
	}
	runtime.GC()
	var baseRT rtSnap
	for _, s := range specs {
		before := readRuntime()
		one(s, nil, "op", &base)
		baseRT = baseRT.add(readRuntime().sub(before))

		sink := newSink(s.ringSpans)
		if elapsedNS, ok := one(s, sink, "op.traced", &probed); ok {
			if err := acc.add(sink, s, elapsedNS); err != nil {
				return base, probed, err
			}
		}
	}
	base.rt = baseRT
	return base, probed, nil
}

// traced runs the workload's traced per-layer run.
func traced(ctx context.Context, wl string, seed int64) (*result, error) {
	var (
		specs    []*spec
		g        goldens
		ops      []op
		rtPerOp  rtSnap
		opsForRT float64
		svcm     = serviceMetrics(0, 0, 0, 0) // only service-mix measures these
		attempts int
		failed   int
		disks    int  // the ladder's disk count
		xio      bool // the ladder's bus: the SMP's XIO or the FC-AL loop
	)
	tr := newTracer()
	switch wl {
	case wlService:
		client := newHTTPClient()
		defer client.CloseIdleConnections()
		srv, sp, gg, warm, err := serviceSetup(ctx, client)
		if err != nil {
			return nil, err
		}
		failed += countWarm(warm)
		attempts++
		specs, g, ops = sp, gg, serviceCatalog()
		svc, err := serviceRoundTraced(client, srv, specs, g, seed, tr)
		srv.stop()
		if err != nil {
			return nil, err
		}
		svcm = svc.metrics
		attempts += svc.attempted
		failed += svc.failed
		rtPerOp, opsForRT = svc.rt, float64(svc.attempted)
		disks = 32
	default:
		grid, err := catalog(wl)
		if err != nil {
			return nil, err
		}
		sp, gg, warm, err := farmSetup(ctx, wl)
		if err != nil {
			return nil, err
		}
		failed += countWarm(warm)
		attempts++
		order := passPerm(len(sp), seed, 0)
		for _, i := range order {
			specs = append(specs, sp[i])
		}
		g, ops = gg, grid
		disks, xio = 64, wl == wlServer
	}

	acc := newLayerAcc()
	base, probed, err := pairedPass(ctx, specs, g, tr, acc)
	if err != nil {
		return nil, err
	}
	attempts += 2 * len(specs)
	failed += base.failed + probed.failed
	if wl != wlService {
		rtPerOp, opsForRT = base.rt, float64(len(specs))
	}

	m := acc.countMetrics()
	events := float64(acc.get(probe.SchedComponent, "events").sum)
	m["sim.host_ns_per_event"] = metric{ratio(float64(base.wall.Nanoseconds()), events), "ns"}
	m["trace.overhead_frac"] = metric{probed.wall.Seconds()/base.wall.Seconds() - 1, "ratio"}
	m["runtime.allocs_per_op"] = metric{float64(rtPerOp.allocObjs) / opsForRT, "count"}
	m["runtime.gc_cycles_per_op"] = metric{float64(rtPerOp.gcCycles) / opsForRT, "count"}
	m["runtime.gc_pause_ms_per_op"] = metric{float64(rtPerOp.pauseNS) / 1e6 / opsForRT, "ms"}
	sums := tr.summary()
	m["tasks.run_ms"] = metric{median(evens(sums["tasks.run"].durMS)), "ms"}
	m["render_ms"] = metric{median(evens(sums["render"].durMS)), "ms"}
	for k, v := range runLadder(acc.ladderFrom(disks, xio)) {
		m[k] = v
	}
	for k, v := range setupCosts(ops) {
		m[k] = v
	}
	for k, v := range svcm {
		m[k] = v
	}

	fmt.Printf("traced run: %d simulations per pass, untraced %.3f s, traced %.3f s, max RSS %.0f MB\n",
		len(specs), base.wall.Seconds(), probed.wall.Seconds(), maxRSSMB())
	tr.print(wl)
	printMetrics(m)
	return &result{Correct: failed == 0, Attempted: attempts, Failed: failed, Metrics: m}, nil
}

// countWarm is 1 for a failed warm-up op, reported, and 0 otherwise.
func countWarm(err error) int {
	if err == nil {
		return 0
	}
	fmt.Println("howbench: traced op failed:", err)
	return 1
}

// evens keeps the base runs of a paired pass's spans: base and probed
// runs alternate, base first.
func evens(xs []float64) []float64 {
	var out []float64
	for i := 0; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}

// serviceMetrics are the service tier's per-layer metrics; the *-farm
// traced runs report them as 0.
func serviceMetrics(hitFrac, dedupFrac, hitP50, missP50 float64) map[string]metric {
	return map[string]metric{
		"service.hit_frac":    {hitFrac, "ratio"},
		"service.dedup_frac":  {dedupFrac, "ratio"},
		"service.hit_ms_p50":  {hitP50, "ms"},
		"service.miss_ms_p50": {missP50, "ms"},
	}
}

// roundMeasure is what one traced service-mix round measured.
type roundMeasure struct {
	metrics   map[string]metric
	attempted int
	failed    int
	rt        rtSnap
}

// serviceRoundTraced sends the run's first round through howsimd with
// both clients, splitting latency by the X-Howsim-Cache header, and
// reads the hit and dedup shares from /statsz.
func serviceRoundTraced(client *http.Client, srv *server, specs []*spec, g goldens, seed int64, tr *tracer) (roundMeasure, error) {
	before, err := srv.statsz(client)
	if err != nil {
		return roundMeasure{}, err
	}
	runtime.GC()
	rtBefore := readRuntime()
	cur := newRoundCursor(seed, len(specs), 1)
	var mu sync.Mutex
	bySource := map[string][]float64{}
	var sr roundMeasure
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx, ok := cur.next()
				if !ok {
					return
				}
				t0 := time.Now()
				source, err := request(client, srv.url, specs[idx], g)
				lat := ms(time.Since(t0))
				mu.Lock()
				tr.record("http.simulate."+source, -1, t0)
				bySource[source] = append(bySource[source], lat)
				sr.attempted++
				if err != nil {
					sr.failed++
					fmt.Println("howbench: traced request failed:", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sr.rt = readRuntime().sub(rtBefore)
	after, err := srv.statsz(client)
	if err != nil {
		return roundMeasure{}, err
	}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	reqs := delta("requests_simulate")
	sources := make([]string, 0, len(bySource))
	for s := range bySource {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	for _, s := range sources {
		fmt.Printf("service-mix traced round: %-6s %5d requests, p50 %.4f ms\n", s, len(bySource[s]), median(bySource[s]))
	}
	sr.metrics = serviceMetrics(ratio(delta("cache_hits"), reqs), ratio(delta("dedup_joins"), reqs),
		median(bySource["hit"]), median(bySource["miss"]))
	return sr, nil
}
