package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"howsim/internal/probe"
)

// setupReps is how many times a run performs its set-up; setup_s is
// the median, so one slow start does not move it.
const setupReps = 5

// A run's work is fixed by --seconds, not by how fast the program
// is, so every seed and every commit is measured on the same op mix:
// whole *-farm passes or service-mix rounds, as many as the nominal
// unit durations below (measured on a 2-core x86-64 host) fit in the
// requested seconds, with floors that leave at least minBeyond
// samples beyond op_ms_p90 (120 active-farm ops, 144 server-farm ops,
// 3194 service-mix requests).
var workUnits = map[string]struct {
	nominal time.Duration
	min     int
}{
	wlActive:  {3500 * time.Millisecond, 5},
	wlServer:  {12 * time.Second, 3},
	wlService: {5 * time.Second, 2},
}

// unitsFor is how many passes or rounds a run of wl makes.
func unitsFor(wl string, dur time.Duration) int {
	u := workUnits[wl]
	n := int((dur + u.nominal/2) / u.nominal)
	if n < u.min {
		n = u.min
	}
	return n
}

// opRecord is one timed op.
type opRecord struct {
	lat    time.Duration
	failed bool
	source string // service-mix: hit, miss or dedup
}

// runStats is what a timed run produced.
type runStats struct {
	setup      []time.Duration
	warmups    int // warm-up ops run during set-up
	warmFailed int
	ops        []opRecord
	wall       time.Duration
	rt         rtSnap
	firstErr   error
	extra      map[string]float64 // workload-specific figures for the report
}

// direct runs one op the way howsimd does — normalized spec, event
// mode, a breakdown sink only when the op asks for one — and returns
// the rendered /v1/simulate body. sink, when non-nil, replaces the
// breakdown sink so a traced run can read it afterwards; tr, when
// non-nil, records the run and render spans under parent. A panic in
// the program is returned as an error.
func direct(ctx context.Context, s *spec, sink *probe.Sink, tr *tracer, parent int) (body []byte, elapsedNS int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic running %s: %v", s.canonical, r)
		}
	}()
	if sink == nil && s.breakdown {
		sink = newSink(s.ringSpans)
	}
	sp := tr.begin("tasks.run", parent)
	out, err := runTask(ctx, s, sink)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("render", parent)
	defer tr.end(sp)
	var bd string
	if s.breakdown {
		bd = breakdownText(sink, s.task, s.machine, out.elapsedNS)
	}
	body, err = renderBody(s, out, bd)
	return body, out.elapsedNS, err
}

// checked runs one op directly and checks its output against the
// goldens.
func checked(ctx context.Context, s *spec, g goldens, sink *probe.Sink, tr *tracer, parent int) error {
	body, _, err := direct(ctx, s, sink, tr, parent)
	if err != nil {
		return err
	}
	return g.check(s, body)
}

// farmSetup normalizes the grid, loads the goldens and runs one
// warm-up op, the grid's first entry. A failed warm-up op is returned
// as warm, to be counted like any failed op; err is a set-up failure.
func farmSetup(ctx context.Context, wl string) (specs []*spec, g goldens, warm, err error) {
	grid, err := catalog(wl)
	if err != nil {
		return nil, nil, nil, err
	}
	if specs, err = normalizeAll(grid); err != nil {
		return nil, nil, nil, err
	}
	if g, err = loadGoldens(goldenPath); err != nil {
		return nil, nil, nil, err
	}
	if err := g.covers(specs); err != nil {
		return nil, nil, nil, err
	}
	if warm = checked(ctx, specs[0], g, nil, nil, -1); warm != nil {
		warm = fmt.Errorf("warm-up op: %w", warm)
	}
	return specs, g, warm, nil
}

// warmedUp counts one warm-up op.
func (st *runStats) warmedUp(err error) {
	st.warmups++
	if err != nil {
		st.warmFailed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
}

// runFarm times the given number of whole passes over the grid.
func runFarm(ctx context.Context, wl string, seed int64, passes int) (*runStats, error) {
	st := &runStats{}
	var specs []*spec
	var g goldens
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var warm, err error
		if specs, g, warm, err = farmSetup(ctx, wl); err != nil {
			return nil, err
		}
		st.setup = append(st.setup, time.Since(t0))
		st.warmedUp(warm)
	}
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, i := range passPerm(len(specs), seed, pass) {
			t0 := time.Now()
			err := checked(ctx, specs[i], g, nil, nil, -1)
			st.ops = append(st.ops, opRecord{lat: time.Since(t0), failed: err != nil})
			if err != nil && st.firstErr == nil {
				st.firstErr = err
			}
		}
	}
	st.wall = time.Since(start)
	st.rt = readRuntime().sub(before)
	return st, nil
}

// Service-mix client count: two closed-loop clients, each sending its
// next request only when the previous one has answered.
const serviceClients = 2

// httpClient talks to the in-process howsimd over loopback.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients * 2}}
}

// post sends one /v1/simulate request and returns the status, the
// cache header and the body.
func post(client *http.Client, url string, s *spec) (int, string, []byte, error) {
	resp, err := client.Post(url+"/v1/simulate", "application/json", bytes.NewReader(s.wire))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(cacheHeader), body, err
}

// request sends one op and checks it: status 200 and a body equal to
// the direct run's golden output.
func request(client *http.Client, url string, s *spec, g goldens) (string, error) {
	status, source, body, err := post(client, url, s)
	if err != nil {
		return source, err
	}
	if status != http.StatusOK {
		return source, fmt.Errorf("status %d for %s: %s", status, s.canonical, bytes.TrimSpace(body))
	}
	return source, g.check(s, body)
}

// serviceSetup starts howsimd, normalizes the catalog, loads the
// goldens and sends one warm-up request. A failed warm-up request is
// returned as warm; err is a set-up failure.
func serviceSetup(ctx context.Context, client *http.Client) (srv *server, specs []*spec, g goldens, warm, err error) {
	if srv, err = startServer(ctx, client); err != nil {
		return nil, nil, nil, nil, err
	}
	if specs, g, err = serviceInputs(); err != nil {
		srv.stop()
		return nil, nil, nil, nil, err
	}
	if _, warm = request(client, srv.url, specs[0], g); warm != nil {
		warm = fmt.Errorf("warm-up request: %w", warm)
	}
	return srv, specs, g, warm, nil
}

func serviceInputs() ([]*spec, goldens, error) {
	specs, err := normalizeAll(serviceCatalog())
	if err != nil {
		return nil, nil, err
	}
	g, err := loadGoldens(goldenPath)
	if err != nil {
		return nil, nil, err
	}
	if err := g.covers(specs); err != nil {
		return nil, nil, err
	}
	return specs, g, nil
}

// roundCursor hands out service-mix requests to the clients, round
// after round, until the run's rounds are used up.
type roundCursor struct {
	seed       int64
	catalogLen int
	roundLen   int
	total      int // rounds × roundLen

	mu    sync.Mutex
	round []int // guarded by mu: the current round's order
	pos   int   // guarded by mu: requests handed out so far
}

func newRoundCursor(seed int64, catalogLen, rounds int) *roundCursor {
	n := len(roundMultiset(catalogLen))
	return &roundCursor{seed: seed, catalogLen: catalogLen, roundLen: n, total: rounds * n}
}

// next returns the catalog index of the next request, or false once
// the run is over.
func (c *roundCursor) next() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pos == c.total {
		return 0, false
	}
	if c.pos%c.roundLen == 0 {
		c.round = serviceRound(c.seed, c.pos/c.roundLen, c.catalogLen)
	}
	idx := c.round[c.pos%c.roundLen]
	c.pos++
	return idx, true
}

// runService runs the closed loop against a fresh howsimd for the
// given number of rounds.
func runService(ctx context.Context, seed int64, rounds int) (*runStats, error) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	st := &runStats{}
	var srv *server
	var specs []*spec
	var g goldens
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var warm, err error
		if srv, specs, g, warm, err = serviceSetup(ctx, client); err != nil {
			return nil, err
		}
		st.setup = append(st.setup, time.Since(t0))
		st.warmedUp(warm)
	}
	defer srv.stop()

	runtime.GC()
	before := readRuntime()
	start := time.Now()
	cur := newRoundCursor(seed, len(specs), rounds)
	recs := make([][]opRecord, serviceClients)
	errs := make([]error, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				idx, ok := cur.next()
				if !ok {
					return
				}
				t0 := time.Now()
				source, err := request(client, srv.url, specs[idx], g)
				recs[c] = append(recs[c], opRecord{lat: time.Since(t0), failed: err != nil, source: source})
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.rt = readRuntime().sub(before)
	for c := range recs {
		st.ops = append(st.ops, recs[c]...)
		if st.firstErr == nil {
			st.firstErr = errs[c]
		}
	}
	counts, err := srv.statsz(client)
	if err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	st.extra = map[string]float64{
		"statsz.cache_hits":   float64(counts["cache_hits"]),
		"statsz.cache_misses": float64(counts["cache_misses"]),
		"statsz.dedup_joins":  float64(counts["dedup_joins"]),
		"statsz.rejected":     float64(counts["rejected_busy"]),
	}
	return st, nil
}
