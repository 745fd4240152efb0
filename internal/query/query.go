// Package query implements the aggregation-query utility benchmark of
// §5/§6: COUNT(*) queries with range predicates on λ randomly selected QI
// attributes and on the SA, generated for an expected selectivity θ, plus
// the three estimators the paper evaluates — intersection-based estimation
// over generalized ECs (§6.2), reconstruction-based estimation over
// perturbed data (§5), and the Anatomy-style Baseline (§6.3) — and the
// median-relative-error workload metric.
package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/anatomy"
	"repro/internal/microdata"
	"repro/internal/perturb"
)

// Aggregate names the aggregation function of a query. The SA domain is
// treated as ordinal (like the paper's salary classes), so the aggregated
// value of a tuple is its SA value index.
type Aggregate string

const (
	// AggCount is COUNT(*) — the zero value, so pre-aggregate queries
	// keep their meaning.
	AggCount Aggregate = ""
	// AggCountNamed is the explicit wire spelling of COUNT(*).
	AggCountNamed Aggregate = "count"
	// AggSum is SUM(SA index) over the matching tuples.
	AggSum Aggregate = "sum"
	// AggAvg is AVG(SA index) = SUM/COUNT; 0 when the COUNT estimate is
	// exactly zero (the average of nothing is reported as 0, never NaN).
	AggAvg Aggregate = "avg"
	// AggMin is the smallest in-range SA index with estimated support
	// > 0; -1 when no matching mass exists.
	AggMin Aggregate = "min"
	// AggMax is the largest in-range SA index with estimated support
	// > 0; -1 when no matching mass exists.
	AggMax Aggregate = "max"
)

// valid reports whether a is a known aggregate spelling.
func (a Aggregate) valid() bool {
	switch a {
	case AggCount, AggCountNamed, AggSum, AggAvg, AggMin, AggMax:
		return true
	}
	return false
}

// IsCount reports whether a denotes COUNT(*) (either spelling).
func (a Aggregate) IsCount() bool { return a == AggCount || a == AggCountNamed }

// Group-by shape limits, enforced by Validate and shared with the API
// boundary.
const (
	// MaxGroupDims caps the GROUP BY dimensions per query.
	MaxGroupDims = 2
	// MaxGroupCells caps the total group cells one query may expand to.
	MaxGroupCells = 1024
	// DefaultGroupBuckets is the per-dimension bucket count used when a
	// numeric GROUP BY dimension leaves GroupBuckets zero.
	DefaultGroupBuckets = 16
)

// Query is one aggregation query: conjunctive range predicates over a
// subset of QI attributes plus a range predicate over the SA domain (SA
// values are treated as ordinal, like the paper's salary classes; ranges
// are over value indices), aggregated by Agg and optionally grouped over
// one or two QI dimensions.
type Query struct {
	// Dims lists the QI attributes carrying predicates (λ = len(Dims)).
	Dims []int
	// Lo and Hi give the inclusive predicate range per entry of Dims.
	Lo, Hi []float64
	// SALo and SAHi give the inclusive SA index range.
	SALo, SAHi int
	// Agg selects the aggregation function; the zero value is COUNT(*).
	Agg Aggregate
	// GroupBy lists up to MaxGroupDims QI dimensions to group over; they
	// must be disjoint from Dims. A grouped query is executed by
	// expanding GroupCells and answering each cell independently.
	GroupBy []int
	// GroupBuckets gives the per-GroupBy-dimension cell count. Empty or
	// zero entries select DefaultGroupBuckets on numeric dimensions and
	// one cell per hierarchy leaf on categorical ones.
	GroupBuckets []int
}

// Canonical returns q with its predicates ordered by ascending dimension.
// The generalized estimators multiply and sum per predicate in listing
// order, so two spellings of one query could differ in their last bits;
// every estimator entry point and the result cache's key evaluate this
// one order instead. A query already in order is returned as is, without
// allocating. Dims must be distinct (Validate checks it); GroupBy keeps
// its order, which fixes the layout of a grouped answer.
func Canonical(q Query) Query {
	if slices.IsSorted(q.Dims) {
		return q
	}
	dims := append([]int(nil), q.Dims...)
	lo := append([]float64(nil), q.Lo...)
	hi := append([]float64(nil), q.Hi...)
	// Insertion sort of the three columns together: λ is small.
	for i := 1; i < len(dims); i++ {
		for j := i; j > 0 && dims[j] < dims[j-1]; j-- {
			dims[j], dims[j-1] = dims[j-1], dims[j]
			lo[j], lo[j-1] = lo[j-1], lo[j]
			hi[j], hi[j-1] = hi[j-1], hi[j]
		}
	}
	q.Dims, q.Lo, q.Hi = dims, lo, hi
	return q
}

// Generator produces random queries of a given shape.
type Generator struct {
	Schema *microdata.Schema
	// Lambda is the number of QI predicates per query.
	Lambda int
	// Theta is the expected overall selectivity; each of the λ+1
	// predicates selects a range of length |A|·θ^{1/(λ+1)} (§6.2).
	Theta float64
	Rng   *rand.Rand
	// Agg is every generated query's aggregate; the zero value is COUNT.
	Agg Aggregate
}

// NewGenerator validates the shape and builds a generator.
func NewGenerator(s *microdata.Schema, lambda int, theta float64, rng *rand.Rand) (*Generator, error) {
	if lambda < 0 || lambda > len(s.QI) {
		return nil, fmt.Errorf("query: λ=%d outside [0,%d]", lambda, len(s.QI))
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("query: θ=%v outside (0,1)", theta)
	}
	return &Generator{Schema: s, Lambda: lambda, Theta: theta, Rng: rng}, nil
}

// Next generates one query.
func (g *Generator) Next() Query {
	frac := math.Pow(g.Theta, 1/float64(g.Lambda+1))
	q := Query{Agg: g.Agg}
	dims := g.Rng.Perm(len(g.Schema.QI))[:g.Lambda]
	sort.Ints(dims)
	for _, d := range dims {
		a := g.Schema.QI[d]
		var lo, hi, width float64
		if a.Kind == microdata.Numeric {
			width = (a.Max - a.Min) * frac
			lo = a.Min + g.Rng.Float64()*(a.Max-a.Min-width)
			hi = lo + width
		} else {
			n := float64(a.Hierarchy.NumLeaves())
			span := math.Max(1, math.Round(n*frac))
			start := float64(g.Rng.Intn(int(n-span) + 1))
			lo, hi = start, start+span-1
		}
		q.Dims = append(q.Dims, d)
		q.Lo = append(q.Lo, lo)
		q.Hi = append(q.Hi, hi)
	}
	m := len(g.Schema.SA.Values)
	span := int(math.Max(1, math.Round(float64(m)*frac)))
	q.SALo = g.Rng.Intn(m - span + 1)
	q.SAHi = q.SALo + span - 1
	return q
}

// MatchesQI reports whether a tuple satisfies the query's QI predicates.
func (q Query) MatchesQI(tp microdata.Tuple) bool {
	for i, d := range q.Dims {
		v := tp.QI[d]
		if v < q.Lo[i] || v > q.Hi[i] {
			return false
		}
	}
	return true
}

// Matches reports whether a tuple satisfies all predicates including SA.
func (q Query) Matches(tp microdata.Tuple) bool {
	return tp.SA >= q.SALo && tp.SA <= q.SAHi && q.MatchesQI(tp)
}

// Validate bounds-checks a query against a schema — predicate dimension
// indices, bound arity, finiteness and ordering, integrality of
// categorical bounds, the aggregate name, the GROUP BY shape, and the SA
// range — so malformed (e.g. network) input errors instead of panicking
// an estimator or poisoning a result cache. It is the shared gate of the
// public anon API and the serving layer's snapshot estimators.
func Validate(schema *microdata.Schema, q Query) error {
	if len(q.Lo) != len(q.Dims) || len(q.Hi) != len(q.Dims) {
		return fmt.Errorf("query: %d dims but %d/%d bounds", len(q.Dims), len(q.Lo), len(q.Hi))
	}
	if !q.Agg.valid() {
		return fmt.Errorf("query: unknown aggregate %q (count, sum, avg, min, max)", q.Agg)
	}
	seen := make(map[int]bool, len(q.Dims))
	for i, d := range q.Dims {
		if d < 0 || d >= len(schema.QI) {
			return fmt.Errorf("query: predicate dimension %d outside schema of %d QI attributes", d, len(schema.QI))
		}
		if seen[d] {
			return fmt.Errorf("query: duplicate predicate on dimension %d", d)
		}
		seen[d] = true
		// Non-finite bounds must fail here: NaN passes every ordering
		// comparison below (lo > hi is false for NaN), and ±Inf passes
		// them all, so either would reach the grid index's float→int
		// cell math and come back as a NaN estimate that the result
		// cache would then persist.
		if math.IsNaN(q.Lo[i]) || math.IsInf(q.Lo[i], 0) || math.IsNaN(q.Hi[i]) || math.IsInf(q.Hi[i], 0) {
			return fmt.Errorf("query: predicate %d has non-finite bounds [%v,%v]", i, q.Lo[i], q.Hi[i])
		}
		if q.Lo[i] > q.Hi[i] {
			return fmt.Errorf("query: predicate %d has lo %v > hi %v", i, q.Lo[i], q.Hi[i])
		}
		// Categorical predicates range over integer leaf ranks; the
		// discrete overlap formula would silently count fractional
		// ranges as nonzero, so reject them outright.
		if schema.QI[d].Kind == microdata.Categorical &&
			(q.Lo[i] != math.Trunc(q.Lo[i]) || q.Hi[i] != math.Trunc(q.Hi[i])) {
			return fmt.Errorf("query: predicate on categorical dimension %d has non-integer bounds [%v,%v]", d, q.Lo[i], q.Hi[i])
		}
	}
	if err := validateGroupBy(schema, q, seen); err != nil {
		return err
	}
	if m := len(schema.SA.Values); q.SALo < 0 || q.SAHi >= m || q.SALo > q.SAHi {
		return fmt.Errorf("query: SA range [%d,%d] outside domain of %d values", q.SALo, q.SAHi, m)
	}
	return nil
}

// validateGroupBy checks the GROUP BY shape: dimension indices, no
// overlap with the predicate dims, bucket arity and bounds, and the
// total cell count the query would expand to.
func validateGroupBy(schema *microdata.Schema, q Query, predDims map[int]bool) error {
	if len(q.GroupBy) == 0 {
		if len(q.GroupBuckets) != 0 {
			return fmt.Errorf("query: group_buckets given without group_by")
		}
		return nil
	}
	if len(q.GroupBy) > MaxGroupDims {
		return fmt.Errorf("query: %d group-by dimensions, limit %d", len(q.GroupBy), MaxGroupDims)
	}
	if len(q.GroupBuckets) != 0 && len(q.GroupBuckets) != len(q.GroupBy) {
		return fmt.Errorf("query: %d group-by dimensions but %d bucket counts", len(q.GroupBy), len(q.GroupBuckets))
	}
	cells := 1
	gseen := make(map[int]bool, len(q.GroupBy))
	for i, d := range q.GroupBy {
		if d < 0 || d >= len(schema.QI) {
			return fmt.Errorf("query: group-by dimension %d outside schema of %d QI attributes", d, len(schema.QI))
		}
		if gseen[d] {
			return fmt.Errorf("query: duplicate group-by dimension %d", d)
		}
		gseen[d] = true
		if predDims[d] {
			return fmt.Errorf("query: dimension %d is both a predicate and a group-by dimension", d)
		}
		buckets := 0
		if len(q.GroupBuckets) > 0 {
			buckets = q.GroupBuckets[i]
		}
		if buckets < 0 || buckets > MaxGroupCells {
			return fmt.Errorf("query: group-by dimension %d has bucket count %d outside [0,%d]", d, buckets, MaxGroupCells)
		}
		cells *= groupDimCells(schema.QI[d], buckets)
		if cells > MaxGroupCells {
			return fmt.Errorf("query: group-by expands to more than %d cells", MaxGroupCells)
		}
	}
	return nil
}

// groupDimCells returns the number of group cells one GROUP BY dimension
// contributes: its bucket count, defaulted per attribute kind and capped
// at the categorical leaf count.
func groupDimCells(a microdata.Attribute, buckets int) int {
	if a.Kind == microdata.Categorical {
		n := a.Hierarchy.NumLeaves()
		if buckets <= 0 || buckets >= n {
			return n
		}
		return buckets
	}
	if buckets <= 0 {
		return DefaultGroupBuckets
	}
	return buckets
}

// GroupCell is one expanded GROUP BY cell: the reported key range per
// GroupBy dimension (in GroupBy order) plus the plain, group-free query
// answering it. For numeric dimensions the key range [Lo, Hi) is
// half-open except the dimension's last cell, which closes at the domain
// maximum; for categorical dimensions it is an inclusive leaf-rank range.
type GroupCell struct {
	Lo, Hi []float64
	Query  Query
}

// GroupCells expands a grouped query into its cells, dim-major in
// GroupBy order: each cell's query carries the original predicates plus
// one additional range predicate per GroupBy dimension, with Agg kept
// and GroupBy cleared. The query must have passed Validate; the expanded
// queries are valid by construction.
func GroupCells(schema *microdata.Schema, q Query) []GroupCell {
	if len(q.GroupBy) == 0 {
		return nil
	}
	type dimCell struct{ keyLo, keyHi, qLo, qHi float64 }
	perDim := make([][]dimCell, len(q.GroupBy))
	for i, d := range q.GroupBy {
		a := schema.QI[d]
		buckets := 0
		if len(q.GroupBuckets) > 0 {
			buckets = q.GroupBuckets[i]
		}
		n := groupDimCells(a, buckets)
		cells := make([]dimCell, n)
		if a.Kind == microdata.Categorical {
			leaves := a.Hierarchy.NumLeaves()
			for c := range cells {
				// Even integer split of the leaf ranks, like a
				// round-robin partition boundary: chunk c covers
				// [c·leaves/n, (c+1)·leaves/n).
				lo := float64(c * leaves / n)
				hi := float64((c+1)*leaves/n - 1)
				cells[c] = dimCell{keyLo: lo, keyHi: hi, qLo: lo, qHi: hi}
			}
		} else {
			w := (a.Max - a.Min) / float64(n)
			for c := range cells {
				lo := a.Min + float64(c)*w
				hi := a.Min + float64(c+1)*w
				qHi := math.Nextafter(hi, math.Inf(-1))
				if c == n-1 {
					// The last cell closes at the domain maximum so the
					// cells exactly cover [Min, Max].
					hi, qHi = a.Max, a.Max
				}
				cells[c] = dimCell{keyLo: lo, keyHi: hi, qLo: lo, qHi: qHi}
			}
		}
		perDim[i] = cells
	}

	total := 1
	for _, cells := range perDim {
		total *= len(cells)
	}
	// Every cell's slices are carved from one backing array per field,
	// each capped at the cell's own length so that no append through a
	// cell can reach its neighbour's.
	g := len(perDim)
	nDims, nLo, nHi := len(q.Dims)+g, len(q.Lo)+g, len(q.Hi)+g
	keyLo, keyHi := make([]float64, total*g), make([]float64, total*g)
	dims := make([]int, total*nDims)
	lo, hi := make([]float64, total*nLo), make([]float64, total*nHi)
	out := make([]GroupCell, 0, total)
	idx := make([]int, len(perDim))
	for c := 0; ; c++ {
		gc := GroupCell{
			Lo: keyLo[c*g : (c+1)*g : (c+1)*g],
			Hi: keyHi[c*g : (c+1)*g : (c+1)*g],
			Query: Query{
				Dims: dims[c*nDims : (c+1)*nDims : (c+1)*nDims],
				Lo:   lo[c*nLo : (c+1)*nLo : (c+1)*nLo],
				Hi:   hi[c*nHi : (c+1)*nHi : (c+1)*nHi],
				SALo: q.SALo, SAHi: q.SAHi,
				Agg: q.Agg,
			},
		}
		copy(gc.Query.Dims, q.Dims)
		copy(gc.Query.Dims[len(q.Dims):], q.GroupBy)
		copy(gc.Query.Lo, q.Lo)
		copy(gc.Query.Hi, q.Hi)
		for i, cells := range perDim {
			dc := cells[idx[i]]
			gc.Lo[i], gc.Hi[i] = dc.keyLo, dc.keyHi
			gc.Query.Lo[len(q.Lo)+i] = dc.qLo
			gc.Query.Hi[len(q.Hi)+i] = dc.qHi
		}
		out = append(out, gc)
		// Odometer increment, last dimension fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			if idx[i]++; idx[i] < len(perDim[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// Exact evaluates the COUNT(*) form of the query on the original table.
func Exact(t *microdata.Table, q Query) int {
	n := 0
	for _, tp := range t.Tuples {
		if q.Matches(tp) {
			n++
		}
	}
	return n
}

// ExactAgg evaluates the query's aggregate exactly on the original
// table, under the ordinal SA semantics (the aggregated value of a tuple
// is its SA value index): COUNT of matches, SUM/AVG of their SA indices
// (AVG of no rows is 0), MIN/MAX of their SA indices (-1 with no rows).
func ExactAgg(t *microdata.Table, q Query) float64 {
	if q.Agg.IsCount() {
		return float64(Exact(t, q))
	}
	cnt, sum, min, max := 0, int64(0), -1, -1
	for _, tp := range t.Tuples {
		if !q.Matches(tp) {
			continue
		}
		cnt++
		sum += int64(tp.SA)
		if min == -1 || tp.SA < min {
			min = tp.SA
		}
		if tp.SA > max {
			max = tp.SA
		}
	}
	switch q.Agg {
	case AggSum:
		return float64(sum)
	case AggAvg:
		if cnt == 0 {
			return 0
		}
		return float64(sum) / float64(cnt)
	case AggMin:
		return float64(min)
	case AggMax:
		return float64(max)
	}
	return float64(cnt)
}

// EstimateGeneralized estimates the query over a generalization-based
// release: tuples are assumed uniformly distributed within each EC's
// bounding box, so each EC contributes (QI-box overlap fraction) × (its
// in-SA-range mass) — the intersection estimator of §6.2, extended to
// the full aggregate set. COUNT weighs each EC's in-range tuple count,
// SUM its in-range SA index sum, AVG divides the two, and MIN/MAX take
// the extreme in-range SA index with support among overlapping ECs (the
// overlap fraction scales mass, not membership, so any EC with frac > 0
// contributes its full in-range support).
func EstimateGeneralized(schema *microdata.Schema, pub []microdata.PublishedEC, q Query) float64 {
	var cnt, sum float64
	min, max := -1, -1
	for i := range pub {
		ec := &pub[i]
		frac := OverlapFraction(schema, ec.Box, q)
		if frac == 0 {
			continue
		}
		n, wsum, lo, hi := saRange(ec.SACounts, q.SALo, q.SAHi)
		cnt += frac * float64(n)
		sum += frac * float64(wsum)
		if lo >= 0 && (min == -1 || lo < min) {
			min = lo
		}
		if hi > max {
			max = hi
		}
	}
	return FinishAgg(q.Agg, cnt, sum, min, max)
}

// saRange folds one SA multiset (counts indexed by SA value) over the
// inclusive index range [lo, hi], clamped to the domain: n is the
// in-range tuple count, wsum the sum of their SA indices, and min and
// max the smallest and largest in-range index with a positive count (-1
// when there is none). An empty or inverted range folds to nothing. It
// is the one SA fold of the reference estimators over published groups.
func saRange(counts []int, lo, hi int) (n int, wsum int64, min, max int) {
	min, max = -1, -1
	if lo < 0 {
		lo = 0
	}
	for v := lo; v <= hi && v < len(counts); v++ {
		c := counts[v]
		n += c
		wsum += int64(v) * int64(c)
		if c > 0 {
			if min == -1 {
				min = v
			}
			max = v
		}
	}
	return n, wsum, min, max
}

// FinishAgg folds the per-release accumulators into the aggregate's
// final value; shared by every estimator family (including the indexed
// path of internal/release) so AVG's zero-count and MIN/MAX's
// empty-support conventions cannot drift between them.
func FinishAgg(agg Aggregate, cnt, sum float64, min, max int) float64 {
	switch agg {
	case AggSum:
		return sum
	case AggAvg:
		if cnt == 0 {
			return 0
		}
		return sum / cnt
	case AggMin:
		return float64(min)
	case AggMax:
		return float64(max)
	}
	return cnt
}

// OverlapFraction returns the fraction of an EC box that intersects the
// query region, assuming a uniform spread of tuples over the box. Numeric
// dimensions use interval-length ratios; categorical ones use discrete
// leaf-rank counts.
func OverlapFraction(schema *microdata.Schema, box microdata.Box, q Query) float64 {
	frac := 1.0
	for i, d := range q.Dims {
		lo, hi := box.Lo[d], box.Hi[d]
		qlo, qhi := q.Lo[i], q.Hi[i]
		if schema.QI[d].Kind == microdata.Categorical {
			// Discrete overlap over leaf ranks.
			olo, ohi := math.Max(lo, qlo), math.Min(hi, qhi)
			if olo > ohi {
				return 0
			}
			frac *= (ohi - olo + 1) / (hi - lo + 1)
		} else {
			if hi == lo {
				if lo < qlo || lo > qhi {
					return 0
				}
				continue // point box inside range: full overlap
			}
			olo, ohi := math.Max(lo, qlo), math.Min(hi, qhi)
			if olo >= ohi {
				// Grazing contact (olo == ohi) is a zero-measure
				// intersection of a positive-width box, so it counts
				// as no overlap, same as disjoint ranges.
				return 0
			}
			frac *= (ohi - olo) / (hi - lo)
		}
		if frac == 0 {
			return 0
		}
	}
	return frac
}

// EstimatePerturbed estimates the query over a perturbed release: the
// tuples of the perturbed table satisfying the QI predicates have their
// observed SA counts reconstructed through PM⁻¹, and the aggregate folds
// the reconstructed per-value counts over the SA range (§5). MIN/MAX use
// positive reconstructed mass as the support test — reconstruction noise
// can push a value's count negative, and negative mass is no evidence of
// presence.
//
// This row scan is the reference the serving layer's block path
// (internal/release) is tested against; both hand their observed counts
// to ReconstructAgg.
func EstimatePerturbed(perturbed *microdata.Table, s *perturb.Scheme, q Query) (float64, error) {
	observed := make([]int, len(perturbed.Schema.SA.Values))
	for _, tp := range perturbed.Tuples {
		if q.MatchesQI(tp) {
			observed[tp.SA]++
		}
	}
	return ReconstructAgg(s, observed, q)
}

// ReconstructAgg answers q from the observed perturbed SA counts of the
// tuples matching its QI predicates: N′ = PM⁻¹·E′, then the aggregate
// folded over the SA range. It is the one fold of every perturbed
// estimator; the counts are integers, so any path that counts the same
// tuples gets the same bits.
func ReconstructAgg(s *perturb.Scheme, observed []int, q Query) (float64, error) {
	n, err := s.Reconstruct(observed)
	if err != nil {
		return 0, err
	}
	var cnt, sum float64
	min, max := -1, -1
	for v := q.SALo; v <= q.SAHi; v++ {
		cnt += n[v]
		sum += float64(v) * n[v]
		if n[v] > 0 {
			if min == -1 {
				min = v
			}
			max = v
		}
	}
	return FinishAgg(q.Agg, cnt, sum, min, max), nil
}

// EstimateBaseline estimates the query over the Anatomy-style Baseline:
// the QI predicates are evaluated exactly over the published tuples and
// the release-wide SA distribution P supplies the in-range mass, so each
// aggregate is matches-weighted over P restricted to the range.
func EstimateBaseline(pub *anatomy.Publication, q Query) (float64, error) {
	matches := 0
	for _, tp := range pub.Table.Tuples {
		if q.MatchesQI(tp) {
			matches++
		}
	}
	if q.Agg.IsCount() {
		return pub.EstimateCount(matches, q.SALo, q.SAHi)
	}
	var cnt, sum float64
	min, max := -1, -1
	for v := q.SALo; v <= q.SAHi && v < len(pub.P); v++ {
		cnt += float64(matches) * pub.P[v]
		sum += float64(v) * float64(matches) * pub.P[v]
		if matches > 0 && pub.P[v] > 0 {
			if min == -1 {
				min = v
			}
			max = v
		}
	}
	return FinishAgg(q.Agg, cnt, sum, min, max), nil
}

// EstimateLDiverse answers a query over the full ℓ-diverse Anatomy
// publication: each group's tuples keep exact QI values, so the QI
// predicates are evaluated exactly and the group's published SA multiset
// supplies the in-range mass proportionally:
// Σ_g matches_g · (inRange_g / |g|) for COUNT, with SUM weighting each
// in-range SA value by its index and MIN/MAX taking the extreme in-range
// value with support in any group that has QI matches.
func EstimateLDiverse(pub *anatomy.LDiversePublication, q Query) float64 {
	var cnt, sum float64
	min, max := -1, -1
	for gi := range pub.Groups {
		g := &pub.Groups[gi]
		matches := 0
		for _, r := range g.Rows {
			if q.MatchesQI(pub.Table.Tuples[r]) {
				matches++
			}
		}
		if matches == 0 {
			continue
		}
		n, wsum, lo, hi := saRange(pub.SACounts[gi], q.SALo, q.SAHi)
		cnt += float64(matches) * float64(n) / float64(len(g.Rows))
		sum += float64(matches) * float64(wsum) / float64(len(g.Rows))
		if lo >= 0 && (min == -1 || lo < min) {
			min = lo
		}
		if hi > max {
			max = hi
		}
	}
	return FinishAgg(q.Agg, cnt, sum, min, max)
}

// Estimator answers one query with an estimate.
type Estimator func(Query) (float64, error)

// MedianRelativeError runs a workload of n queries from the generator and
// returns the median of |est − prec| / prec, prec being the query's
// aggregate on t (ExactAgg), over queries with prec > 0 (zero-precision
// queries are dropped, as in §6.2). The second result is the number of
// evaluated (non-dropped) queries.
func MedianRelativeError(t *microdata.Table, gen *Generator, est Estimator, n int) (float64, int, error) {
	errs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		q := gen.Next()
		prec := ExactAgg(t, q)
		if prec <= 0 {
			continue
		}
		e, err := est(q)
		if err != nil {
			return 0, 0, err
		}
		errs = append(errs, math.Abs(e-prec)/prec)
	}
	if len(errs) == 0 {
		return 0, 0, nil
	}
	sort.Float64s(errs)
	mid := len(errs) / 2
	med := errs[mid]
	if len(errs)%2 == 0 {
		med = (errs[mid-1] + errs[mid]) / 2
	}
	return med, len(errs), nil
}
