package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/query"
	"repro/internal/release"
	"repro/pkg/api"
)

// sample is one answered batch kept for the answer check.
type sample struct {
	queries []api.Query
	results []api.QueryResult
}

// sampled picks a seeded 1-in-every batches of a run for the answer
// check; batch i is picked or not for a given seed whoever sent it.
func sampled(seed int64, i, every int) bool {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%uint64(every) == 0
}

// referee recomputes served answers with Snapshot.EstimateUnchecked on a
// decoded copy of the served snapshot. nudge, when set, moves the first
// reference answer by one ulp: the self-test's proof that a wrong answer
// is caught.
type referee struct {
	snap  *release.Snapshot
	nudge bool
}

func (r *referee) ref(q query.Query) (float64, error) {
	v, err := r.snap.EstimateUnchecked(q, nil)
	if r.nudge {
		r.nudge = false
		v = math.Nextafter(v, math.Inf(1))
	}
	return v, err
}

// check compares one served batch bit for bit against the reference;
// GROUP BY answers are expanded with query.GroupCells and compared cell
// by cell, keys included.
func (r *referee) check(s sample) error {
	if len(s.results) != len(s.queries) {
		return fmt.Errorf("%d results for %d queries", len(s.results), len(s.queries))
	}
	for i, wq := range s.queries {
		q, got := fromAPI(wq), s.results[i]
		if len(q.GroupBy) == 0 {
			want, err := r.ref(q)
			if err != nil {
				return err
			}
			if math.Float64bits(want) != math.Float64bits(got.Estimate) {
				return fmt.Errorf("query %d: served %v, reference %v", i, got.Estimate, want)
			}
			continue
		}
		cells := query.GroupCells(r.snap.Schema, q)
		if len(cells) != len(got.Groups) {
			return fmt.Errorf("query %d: %d groups served, %d cells expected", i, len(got.Groups), len(cells))
		}
		for ci, c := range cells {
			g := got.Groups[ci]
			if !slices.Equal(g.Lo, c.Lo) || !slices.Equal(g.Hi, c.Hi) {
				return fmt.Errorf("query %d cell %d: served key [%v, %v], expected [%v, %v]", i, ci, g.Lo, g.Hi, c.Lo, c.Hi)
			}
			want, err := r.ref(c.Query)
			if err != nil {
				return err
			}
			if math.Float64bits(want) != math.Float64bits(g.Estimate) {
				return fmt.Errorf("query %d cell %d: served %v, reference %v", i, ci, g.Estimate, want)
			}
		}
	}
	return nil
}
