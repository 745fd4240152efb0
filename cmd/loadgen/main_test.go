package main

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestLatencyPercentilesAreSamples: every percentile loadgen reports is
// one of the measured round trips, they never decrease with the rank,
// and p99 never reads above the max — the failure of the interpolated
// histogram quantiles this replaced.
func TestLatencyPercentilesAreSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 7, 100, 1001} {
		// Three workers' samples, long-tailed like real round trips.
		parts := make([][]time.Duration, 3)
		var all []time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration(rng.ExpFloat64() * float64(5*time.Millisecond))
			parts[i%3] = append(parts[i%3], d)
			all = append(all, d)
		}
		l := mergeLatencies(parts...)
		if len(l) != n || !slices.IsSorted(l) {
			t.Fatalf("n=%d: merged %d samples, sorted=%v", n, len(l), slices.IsSorted(l))
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0.50, 0.95, 0.99, 1} {
			got := l.quantile(q)
			if !slices.Contains(all, got) {
				t.Errorf("n=%d: p%g = %v is not a sample", n, q*100, got)
			}
			if got < prev {
				t.Errorf("n=%d: p%g = %v below the lower percentile %v", n, q*100, got, prev)
			}
			prev = got
		}
		rep := l.report()
		if rep.Max != float64(slices.Max(all))/1e6 {
			t.Errorf("n=%d: max %v ms, want %v", n, rep.Max, slices.Max(all))
		}
		if rep.P99 > rep.Max {
			t.Errorf("n=%d: p99 %v ms above max %v ms", n, rep.P99, rep.Max)
		}
	}
	// Nearest rank on a known set: p50 of 1..10 is 5, p95 and p99 are 10.
	var ten latencies
	for i := 1; i <= 10; i++ {
		ten = append(ten, time.Duration(i))
	}
	if got := [3]time.Duration{ten.quantile(0.5), ten.quantile(0.95), ten.quantile(0.99)}; got != [3]time.Duration{5, 10, 10} {
		t.Errorf("p50/p95/p99 of 1..10 = %v, want [5 10 10]", got)
	}
	if got := latencies(nil).report(); got != (latencyReport{}) {
		t.Errorf("empty report = %+v, want zeros", got)
	}
}
