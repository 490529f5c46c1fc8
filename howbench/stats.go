package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses, with an error, when fewer than minBeyond samples lie above
// the chosen rank: such a tail is too thin to report.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g: no samples", q*100)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g: %d samples lie beyond it, need %d (have %d samples)", q*100, beyond, minBeyond, n)
	}
	return s[rank], nil
}

// median is the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// smoothedMedian estimates the median as the mean of the order
// statistics whose ranks lie within ±5% of the middle. A plain median
// of ~150 latencies jumps from one op to its neighbour where the
// distribution is sparse at the centre; averaging the neighbourhood
// keeps host noise from moving it by a whole gap.
func smoothedMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	half := n / 20
	lo, hi := (n-1)/2-half, n/2+half
	sum := 0.0
	for _, x := range s[lo : hi+1] {
		sum += x
	}
	return sum / float64(hi-lo+1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is the process's peak resident set so far, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
