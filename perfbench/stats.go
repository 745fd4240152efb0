package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the least number of samples that must lie beyond a
// reported percentile; with fewer, the percentile is an extrapolation and
// the run errors instead of printing it.
const minBeyond = 10

// quantile is one exact percentile of raw samples.
type quantile struct {
	value  float64
	n      int // samples the percentile was taken over
	beyond int // samples strictly above its rank
}

// exactQuantile returns the nearest-rank q-quantile of samples (sorted in
// place): the smallest sample with at least q·n samples at or below it.
func exactQuantile(samples []float64, q float64) (quantile, error) {
	slices.Sort(samples)
	n := len(samples)
	rank := max(int(math.Ceil(q*float64(n))), 1)
	if n == 0 || n-rank < minBeyond {
		return quantile{}, fmt.Errorf("p%g of %d samples has %d beyond it, fewer than %d", q*100, n, max(n-rank, 0), minBeyond)
	}
	return quantile{value: samples[rank-1], n: n, beyond: n - rank}, nil
}

// median returns the middle of xs (the mean of the middle two for even
// lengths); xs is sorted in place. Zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns num/den, 0 when den is 0: a layer that did no work on a
// workload reports 0 over a base of 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// exposition is one /metrics scrape: every sample line's value keyed by
// its series (metric name plus label set, exactly as rendered).
type exposition map[string]float64

// scrape fetches and parses one Prometheus text exposition.
func scrape(hc *http.Client, url string) (exposition, error) {
	resp, err := hc.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, resp.StatusCode)
	}
	out := make(exposition)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// sum adds several scrapes series by series (the nodes of a cluster).
func sum(exps ...exposition) exposition {
	out := make(exposition)
	for _, e := range exps {
		for k, v := range e {
			out[k] += v
		}
	}
	return out
}

// diff is the growth of every series between two scrapes.
func diff(before, after exposition) exposition {
	out := make(exposition, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// delta is the growth of one series between two scrapes.
func delta(before, after exposition, series string) float64 {
	return after[series] - before[series]
}

// stageDelta returns a stage histogram's summed seconds and observation
// count between two scrapes.
func stageDelta(before, after exposition, stage string) (secs, count float64) {
	labels := fmt.Sprintf("{stage=%q}", stage)
	return delta(before, after, "repro_stage_duration_seconds_sum"+labels),
		delta(before, after, "repro_stage_duration_seconds_count"+labels)
}
