// Command howbench is howsim's end-to-end benchmark. It drives the
// simulator only from outside: simulations enter through
// runconfig.Request → Normalize → tasks.RunCtx in event mode, service
// requests go over HTTP to an in-process howsimd, and every simulated
// output is checked against the committed goldens.
//
// Run it from the root of a howsim checkout:
//
//	bash howbench/run.sh --workload active-farm --seed 1 --seconds 20 --trace 0
//	bash howbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//	go run ./howbench --regen-goldens
//
// With --trace 0 it times the workload and prints the end-to-end
// metrics; with --trace 1 it runs the workload's op list once with a
// probe sink attached, plus the layer ladder, and prints the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. METRICS.md defines
// every metric and which layer metric should move which end-to-end one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "active-farm | server-farm | service-mix | all")
		seed     = flag.Int64("seed", 1, "workload seed: the op order and the service-mix request draws")
		seconds  = flag.Int("seconds", 20, "how long the timed run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
		regen    = flag.Bool("regen-goldens", false, "recompute every golden digest from the current program and write them; never done otherwise")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *regen); err != nil {
		fmt.Fprintln(os.Stderr, "howbench:", err)
		os.Exit(1)
	}
}

func run(wl string, seed int64, seconds, trace int, regen bool) error {
	ctx := context.Background()
	if regen {
		return regenGoldens(ctx)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	if wl == "all" {
		return runAll(seed, seconds, trace)
	}
	if _, err := catalog(wl); err != nil {
		return err
	}
	fmt.Printf("howbench: workload=%s seed=%d seconds=%d trace=%d go=%s nproc=%d GOMAXPROCS=%d\n",
		wl, seed, seconds, trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	dur := time.Duration(seconds) * time.Second
	var res *result
	var err error
	if trace == 1 {
		res, err = traced(ctx, wl, seed)
	} else {
		res, err = timed(ctx, wl, seed, dur)
	}
	if err != nil {
		return err
	}
	return emit(res)
}

// runAll runs every workload, each in its own process so that
// max_rss_mb is the workload's own.
func runAll(seed int64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, wl := range workloadNames {
		cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, wl)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}

// timed measures a workload with tracing off and reports the
// end-to-end metrics.
func timed(ctx context.Context, wl string, seed int64, dur time.Duration) (*result, error) {
	var st *runStats
	var err error
	if wl == wlService {
		st, err = runService(ctx, seed, unitsFor(wl, dur))
	} else {
		st, err = runFarm(ctx, wl, seed, unitsFor(wl, dur))
	}
	if err != nil {
		return nil, err
	}
	lats := make([]float64, len(st.ops))
	failed := st.warmFailed
	for i, o := range st.ops {
		lats[i] = ms(o.lat)
		if o.failed {
			failed++
		}
	}
	p90, err := percentile(lats, 0.9)
	if err != nil {
		return nil, fmt.Errorf("op_ms_p90: %w", err)
	}
	setups := make([]float64, len(st.setup))
	for i, d := range st.setup {
		setups[i] = d.Seconds()
	}
	n := float64(len(st.ops))
	attempted := len(st.ops) + st.warmups
	errFrac := float64(failed) / float64(attempted)
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"ops_per_s":       {n / st.wall.Seconds(), "ops/s"},
			"op_ms_p50":       {smoothedMedian(lats), "ms"},
			"op_ms_p90":       {p90, "ms"},
			"alloc_mb_per_op": {float64(st.rt.allocBytes) / n / (1 << 20), "MB"},
			"max_rss_mb":      {maxRSSMB(), "MB"},
			"ok_frac":         {1 - errFrac, "ratio"},
		},
	}
	fmt.Printf("timed run: %d ops in %.3f s, %d beyond p90, %d setups\n",
		len(st.ops), st.wall.Seconds(), len(st.ops)-int(math.Ceil(0.9*n)), len(st.setup))
	if wl == wlService {
		src := map[string]int{}
		for _, o := range st.ops {
			src[o.source]++
		}
		fmt.Printf("service-mix: hit %d, miss %d, dedup %d (hit share %.3f); statsz %v\n",
			src["hit"], src["miss"], src["dedup"], float64(src["hit"])/n, st.extra)
	}
	printMetrics(res.Metrics)
	fmt.Printf("%-32s %16.6f  %s\n", "error_frac", errFrac, "ratio")
	if st.firstErr != nil {
		fmt.Fprintln(os.Stderr, "howbench: first failed op:", st.firstErr)
	}
	return res, nil
}

// printMetrics prints one "name value unit" line per metric, by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %16.6f  %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// emit prints the final JSON line.
func emit(res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "howbench: outputs did not match the goldens")
	}
	fmt.Println(string(b))
	return nil
}

// regenGoldens recomputes the digest of every op in every workload's
// catalog with a direct run and writes the golden file.
func regenGoldens(ctx context.Context) error {
	g := goldens{}
	for _, wl := range workloadNames {
		ops, err := catalog(wl)
		if err != nil {
			return err
		}
		specs, err := normalizeAll(ops)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, s := range specs {
			body, _, err := direct(ctx, s, nil, nil, -1)
			if err != nil {
				return fmt.Errorf("%s: %w", s.canonical, err)
			}
			g[s.canonical] = digest(body)
		}
		fmt.Printf("%s: %d digests in %.2f s\n", wl, len(specs), time.Since(t0).Seconds())
	}
	return writeGoldens(goldenPath, g)
}
