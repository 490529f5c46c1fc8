package main

import (
	"fmt"
	"math"
	"math/rand"
)

// op is one simulation the benchmark asks for, in the benchmark's own
// terms. The runconfig adapter turns it into the request the program
// sees; nothing else about the workload reaches the program.
type op struct {
	Task      string
	Arch      string
	Disks     int
	Scale     float64
	Faults    string
	Breakdown bool
}

// Workload names, as passed to --workload.
const (
	wlActive  = "active-farm"
	wlServer  = "server-farm"
	wlService = "service-mix"
)

var workloadNames = []string{wlActive, wlServer, wlService}

// taskNames are the paper's eight decision-support tasks.
var taskNames = []string{"select", "aggregate", "groupby", "sort", "dcube", "join", "dmine", "mview"}

// farmSizes are the disk counts of the *-farm grids.
var farmSizes = []int{32, 64, 128}

const (
	activeScale  = 0.25
	serverScale  = 0.05
	serviceScale = 0.01
)

// faultShapes are the service-mix fault plans: none, transient media
// errors plus silent corruption, a failed drive recovered from a
// replica onto a hot spare, and a straggler drive. The times fall
// inside the shortest scale-0.01 run.
var faultShapes = []string{
	"",
	"seed=7,media=0.002,corrupt=0.002",
	"seed=11,fail=1@5ms,replica,spare",
	"seed=13,straggler=0@1ms+50ms*3",
}

// grid is tasks × farmSizes × archs at one scale, in a fixed order.
func grid(archs []string, scale float64) []op {
	var ops []op
	for _, a := range archs {
		for _, d := range farmSizes {
			for _, t := range taskNames {
				ops = append(ops, op{Task: t, Arch: a, Disks: d, Scale: scale})
			}
		}
	}
	return ops
}

func activeGrid() []op { return grid([]string{"active"}, activeScale) }
func serverGrid() []op { return grid([]string{"cluster", "smp"}, serverScale) }

// serviceCatalog is the fixed set of small runs service-mix requests
// are drawn from: 3 archs × 8 tasks × {16, 32} disks × 4 fault shapes ×
// breakdown off/on = 384 entries, more than the service's default
// 256-entry result cache.
func serviceCatalog() []op {
	var ops []op
	for _, a := range []string{"active", "cluster", "smp"} {
		for _, t := range taskNames {
			for _, d := range []int{16, 32} {
				for _, f := range faultShapes {
					for _, b := range []bool{false, true} {
						ops = append(ops, op{Task: t, Arch: a, Disks: d, Scale: serviceScale, Faults: f, Breakdown: b})
					}
				}
			}
		}
	}
	return ops
}

// catalog is a workload's finite config space: every op any seed can
// draw. The goldens hold one digest per entry.
func catalog(wl string) ([]op, error) {
	switch wl {
	case wlActive:
		return activeGrid(), nil
	case wlServer:
		return serverGrid(), nil
	case wlService:
		return serviceCatalog(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", wl, wlActive, wlServer, wlService)
}

// passPerm is the op order of one *-farm pass: a seed-shuffled
// permutation of the grid. Every pass holds the same ops, so throughput
// and percentiles compare across seeds; the seed only moves ops
// relative to each other.
func passPerm(n int, seed int64, pass int) []int {
	return rand.New(rand.NewSource(seed*1000003 + int64(pass))).Perm(n)
}

// Service-mix popularity. A round is a fixed multiset of catalog
// entries: the entry of popularity rank k appears in proportion to the
// Zipf weight (zipfV+k)^-zipfS, at least once, so every round touches
// the whole catalog. The ranking is a fixed permutation of the catalog
// and the seed shuffles each round's order. Whole rounds keep the mix of
// every run identical whatever the seed; because a round touches more
// entries than the cache holds, the rarely requested ones miss every
// round. The constants put the hit share near 0.79 (first two rounds),
// far from 50%: p50 falls among hits and p90 among misses.
const (
	zipfS       = 1.3
	zipfV       = 5
	roundTarget = 1536 // requests per round before rounding counts
	rankingSeed = 20000301
)

// roundMultiset is one round's entries in popularity order.
func roundMultiset(catalogLen int) []int {
	w := make([]float64, catalogLen)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(zipfV+float64(k), -zipfS)
		total += w[k]
	}
	rank := rand.New(rand.NewSource(rankingSeed)).Perm(catalogLen)
	var out []int
	for k, wk := range w {
		n := int(math.Round(roundTarget * wk / total))
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, rank[k])
		}
	}
	return out
}

// serviceRound is round r of a service-mix run: the round multiset in
// an order drawn from (seed, r). The two clients take requests from it
// in turn.
func serviceRound(seed int64, r, catalogLen int) []int {
	out := roundMultiset(catalogLen)
	rand.New(rand.NewSource(seed*7919+int64(r))).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
