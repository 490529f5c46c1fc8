package main

import (
	"context"
	"slices"
	"testing"
	"time"
)

// opList is a run's op order as catalog indices: the first passes of a
// *-farm workload or the first rounds of service-mix.
func opList(t *testing.T, wl string, seed int64, units int) []int {
	t.Helper()
	cat, err := catalog(wl)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for u := 0; u < units; u++ {
		if wl == wlService {
			out = append(out, serviceRound(seed, u, len(cat))...)
		} else {
			out = append(out, passPerm(len(cat), seed, u)...)
		}
	}
	return out
}

func TestSameSeedSameOpList(t *testing.T) {
	for _, wl := range workloadNames {
		a, b := opList(t, wl, 42, 2), opList(t, wl, 42, 2)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 42 gave two different op lists", wl)
		}
	}
}

func TestOtherSeedSameCatalog(t *testing.T) {
	for _, wl := range workloadNames {
		cat, err := catalog(wl)
		if err != nil {
			t.Fatal(err)
		}
		a, b := opList(t, wl, 1, 1), opList(t, wl, 2, 1)
		if slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same order", wl)
		}
		for _, i := range b {
			if i < 0 || i >= len(cat) {
				t.Fatalf("%s: index %d outside the %d-entry catalog", wl, i, len(cat))
			}
		}
		// Same multiset: a seed reorders a pass or round, never its mix.
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 drew different op mixes", wl)
		}
	}
}

func TestServiceRoundCoversCatalog(t *testing.T) {
	n := len(serviceCatalog())
	if n <= defaultCacheEntries {
		t.Fatalf("catalog of %d entries fits the %d-entry cache", n, defaultCacheEntries)
	}
	seen := make([]bool, n)
	for _, i := range roundMultiset(n) {
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("catalog entry %d is never requested", i)
		}
	}
}

func TestGoldenCatchesFlippedByte(t *testing.T) {
	g, err := loadGoldens("goldens.txt")
	if err != nil {
		t.Fatal(err)
	}
	s, err := normalize(serviceCatalog()[0])
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := direct(context.Background(), s, nil, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.check(s, body); err != nil {
		t.Fatalf("unmodified output: %v", err)
	}
	for _, at := range []int{0, len(body) / 2, len(body) - 1} {
		flipped := append([]byte(nil), body...)
		flipped[at] ^= 1
		if g.check(s, flipped) == nil {
			t.Errorf("byte %d flipped: golden check passed", at)
		}
	}
}

func TestGoldensCoverEveryCatalog(t *testing.T) {
	g, err := loadGoldens("goldens.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		ops, _ := catalog(wl)
		specs, err := normalizeAll(ops)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.covers(specs); err != nil {
			t.Errorf("%s: %v", wl, err)
		}
	}
}

func TestP90RefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, n := range []int{1, 50, 99} {
		if _, err := percentile(samples(n), 0.9); err == nil {
			t.Errorf("p90 of %d samples reported with fewer than %d beyond it", n, minBeyond)
		}
	}
	v, err := percentile(samples(100), 0.9)
	if err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
}

func TestSmoothedMedian(t *testing.T) {
	if got := smoothedMedian([]float64{3, 1, 2}); got != 2 {
		t.Errorf("smoothedMedian(3,1,2) = %v, want 2", got)
	}
	if got := smoothedMedian([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("smoothedMedian(4,1,3,2) = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	xs[99] = 1e9 // an outlier far from the centre does not move it
	if got := smoothedMedian(xs); got != 49.5 {
		t.Errorf("smoothedMedian(0..98, 1e9) = %v, want 49.5", got)
	}
}

func TestWorkFloorsKeepP90Samples(t *testing.T) {
	for _, wl := range workloadNames {
		cat, _ := catalog(wl)
		per := len(cat)
		if wl == wlService {
			per = len(roundMultiset(len(cat)))
		}
		ops := per * unitsFor(wl, time.Second)
		if beyond := ops - (ops*9+9)/10; beyond < minBeyond {
			t.Errorf("%s: shortest run has %d ops, %d beyond p90", wl, ops, beyond)
		}
	}
}
