package release

import (
	"math"
	"sync"

	"repro/internal/microdata"
	"repro/internal/query"
)

// ECIndex accelerates intersection-based aggregate estimation over a
// published set of equivalence classes. Each QI dimension carries a
// uniform grid of cells over the attribute domain; every cell lists the
// IDs of the ECs whose bounding box overlaps it, flattened into one
// contiguous per-dimension ID arena so a query range is a single
// sequential scan. A query folds its predicate ranges from most to least
// selective and verifies only the surviving ECs against the full
// predicate set — the data-skipping idea of per-block summaries applied
// to EC bounding boxes. Verification reads the columnar mirror of the EC
// store (microdata.ECColumns) rather than the row structs: flat Lo/Hi
// columns and SA prefix arenas, cache-local because BuildIndex first
// remaps EC IDs into Hilbert order (see hilbertOrder).
//
// The index is immutable after Build and safe for concurrent queries.
type ECIndex struct {
	schema *microdata.Schema
	ecs    []microdata.PublishedEC
	cols   *microdata.ECColumns
	isCat  []bool
	dims   []dimGrid

	// totalSA holds exclusive prefix sums of the whole release's SA
	// counts, answering predicate-free (λ=0) COUNT queries in O(1);
	// totalSAW holds the value-weighted sibling for SUM/AVG.
	totalSA  []int
	totalSAW []int64

	scratch sync.Pool
}

func (ix *ECIndex) getMS() *markSet {
	if v := ix.scratch.Get(); v != nil {
		return v.(*markSet)
	}
	return &markSet{}
}

// dimGrid is the per-dimension cell directory: cell c's candidate IDs are
// ids[starts[c]:starts[c+1]], so a cell range [c0,c1] is the single
// contiguous slice ids[starts[c0]:starts[c1+1]] and its length — the
// planner's load metric — is one subtraction.
type dimGrid struct {
	min    float64
	invW   float64 // cells per domain unit
	n      int     // cell count
	starts []int32 // len n+1
	ids    []int32
}

// MaxGridCells caps the per-dimension grid resolution (Params.Validate
// enforces the same bound at the API boundary).
const MaxGridCells = 4096

// maxAvgSpan bounds the average number of cells an EC's box may span per
// dimension: BuildIndex coarsens a dimension's grid until the average
// span is within this budget, so the directory holds O(dims · |ECs|)
// entries regardless of box widths or the requested resolution — wide
// boxes get a coarser (less selective, but never memory-hungry) grid.
const maxAvgSpan = 4

// BuildIndex constructs the index over a published EC set. The slice is
// retained and permuted in place into Hilbert order of box centroids
// (estimates are unchanged under permutation; the reorder makes cell
// candidate lists runs of nearby IDs); callers must not mutate it
// afterwards. Each EC's SA prefix sums are built if absent so range
// counting is O(1) on the verification path. cellsPerDim ≤ 0 selects
// √|ECs| clamped to [16, 512], balancing directory size against pruning
// resolution; explicit values are clamped to MaxGridCells.
func BuildIndex(schema *microdata.Schema, ecs []microdata.PublishedEC, cellsPerDim int) *ECIndex {
	if cellsPerDim <= 0 {
		cellsPerDim = int(math.Sqrt(float64(len(ecs))))
		if cellsPerDim < 16 {
			cellsPerDim = 16
		}
		if cellsPerDim > 512 {
			cellsPerDim = 512
		}
	}
	if cellsPerDim > MaxGridCells {
		cellsPerDim = MaxGridCells
	}
	hilbertOrder(schema, ecs)
	ix := &ECIndex{schema: schema, ecs: ecs}

	ix.totalSA = make([]int, len(schema.SA.Values)+1)
	ix.totalSAW = make([]int64, len(schema.SA.Values)+1)
	for i := range ecs {
		ec := &ecs[i]
		if len(ec.SAPrefix) != len(ec.SACounts)+1 || len(ec.SAWPrefix) != len(ec.SACounts)+1 {
			ec.BuildSAPrefix()
		}
		for v, c := range ec.SACounts {
			ix.totalSA[v+1] += c
			ix.totalSAW[v+1] += int64(v) * int64(c)
		}
	}
	for v := 1; v < len(ix.totalSA); v++ {
		ix.totalSA[v] += ix.totalSA[v-1]
		ix.totalSAW[v] += ix.totalSAW[v-1]
	}

	ix.cols = microdata.BuildECColumns(ecs, len(schema.QI), len(schema.SA.Values))
	ix.isCat = make([]bool, len(schema.QI))
	for d, a := range schema.QI {
		ix.isCat[d] = a.Kind == microdata.Categorical
	}

	ix.dims = make([]dimGrid, len(schema.QI))
	for d, a := range schema.QI {
		var lo, hi float64
		if a.Kind == microdata.Numeric {
			lo, hi = a.Min, a.Max
		} else {
			lo, hi = 0, float64(a.Hierarchy.NumLeaves()-1)
		}
		los, his := ix.cols.Lo[d], ix.cols.Hi[d]
		// Coarsen until the directory for this dimension stays within the
		// maxAvgSpan entry budget (wide boxes span proportionally fewer of
		// a coarser grid's cells). Spans are computed arithmetically from
		// min/invW alone — no throwaway cell directory per halving step.
		cells := cellsPerDim
		total := 0
		for cells > 16 && len(ecs) > 0 {
			invW := 0.0
			if hi > lo {
				invW = float64(cells) / (hi - lo)
			}
			total = 0
			for i := range los {
				total += gridSpan(lo, invW, cells, los[i], his[i])
			}
			if total <= maxAvgSpan*len(ecs) {
				break
			}
			cells /= 2
		}
		g := dimGrid{min: lo, n: cells}
		if hi > lo {
			g.invW = float64(cells) / (hi - lo)
		}
		// Counting sort into the flat arena: per-cell entry counts via a
		// difference array, then a cursor-driven fill.
		diff := make([]int32, cells+1)
		for i := range los {
			c0 := g.cell(los[i])
			c1 := g.cell(his[i])
			diff[c0]++
			diff[c1+1]--
		}
		g.starts = make([]int32, cells+1)
		var run, sum int32
		for c := 0; c < cells; c++ {
			run += diff[c]
			g.starts[c] = sum
			sum += run
		}
		g.starts[cells] = sum
		g.ids = make([]int32, sum)
		cursor := make([]int32, cells)
		copy(cursor, g.starts[:cells])
		for i := range los {
			c0 := g.cell(los[i])
			c1 := g.cell(his[i])
			for c := c0; c <= c1; c++ {
				g.ids[cursor[c]] = int32(i)
				cursor[c]++
			}
		}
		ix.dims[d] = g
	}
	return ix
}

// gridSpan returns how many cells of a grid with the given origin and
// resolution the interval [blo, bhi] occupies — the arithmetic twin of
// cell(bhi)-cell(blo)+1 with identical clamping.
func gridSpan(min, invW float64, n int, blo, bhi float64) int {
	c0 := int((blo - min) * invW)
	if c0 < 0 {
		c0 = 0
	}
	if c0 >= n {
		c0 = n - 1
	}
	c1 := int((bhi - min) * invW)
	if c1 < 0 {
		c1 = 0
	}
	if c1 >= n {
		c1 = n - 1
	}
	return c1 - c0 + 1
}

// cell maps a coordinate to its grid cell, clamped to the domain.
func (g *dimGrid) cell(v float64) int {
	c := int((v - g.min) * g.invW)
	if c < 0 {
		c = 0
	}
	if c >= g.n {
		c = g.n - 1
	}
	return c
}

// markSet dedupes candidate EC IDs across the cells of a query range
// without per-query allocation: IDs are stamped with an epoch that a reset
// merely increments. It also carries the planner's predicate-range
// scratch so the hot path allocates nothing.
type markSet struct {
	mark     []uint32
	epoch    uint32
	reserved uint32 // epochs the current query may consume: epoch..epoch+reserved-1
	prs      []predRange
	cand     []int32   // survivor buffer filled by collect
	fracs    []float64 // per-survivor overlap fractions
}

// reset reserves `passes` consecutive epochs for one query: pass k tags
// survivors with epoch+k−1, so a multi-pass intersection needs no
// clearing between passes. The next reset advances past the whole
// reservation.
func (m *markSet) reset(n, passes int) {
	if passes < 1 {
		passes = 1
	}
	if len(m.mark) < n {
		m.mark = make([]uint32, n)
		m.epoch = 1
		m.reserved = uint32(passes)
		return
	}
	m.epoch += m.reserved
	m.reserved = uint32(passes)
	if m.epoch >= ^uint32(0)-m.reserved { // reservation would wrap: clear and restart
		for i := range m.mark {
			m.mark[i] = 0
		}
		m.epoch = 1
	}
}

// Scratch is reusable per-caller estimator state: the candidate-dedup
// mark set that Estimate otherwise borrows from an internal pool. A
// long-lived worker (the batch engine of internal/engine) owns one
// Scratch and passes it to EstimateScratch on every call, so the hot
// path never touches the pool and the mark array is reused across
// queries and releases of any size. The zero value is ready to use; a
// Scratch must not be shared between concurrent calls.
type Scratch struct {
	ms markSet
}

// NumECs returns the number of indexed equivalence classes.
func (ix *ECIndex) NumECs() int { return len(ix.ecs) }

// ECs returns the indexed EC slice; callers must treat it as read-only.
func (ix *ECIndex) ECs() []microdata.PublishedEC { return ix.ecs }

// predRange is one query predicate mapped onto its dimension's grid.
type predRange struct {
	pred   int // index into q.Dims
	c0, c1 int
	load   int // Σ cell list lengths over [c0, c1]; candidate-count proxy
}

// pruneDims maps every query predicate onto its grid and returns them
// sorted by ascending load, so callers can intersect the most selective
// dimensions first; the flat arena makes each load a prefix-sum
// subtraction. The slice is scratch state owned by ms. Empty when the
// query carries no QI predicates.
func (ix *ECIndex) pruneDims(q query.Query, ms *markSet) []predRange {
	prs := ms.prs[:0]
	for i, d := range q.Dims {
		g := &ix.dims[d]
		lo, hi := g.cell(q.Lo[i]), g.cell(q.Hi[i])
		load := int(g.starts[hi+1] - g.starts[lo])
		prs = append(prs, predRange{pred: i, c0: lo, c1: hi, load: load})
	}
	// Insertion sort: λ is small and the sort must stay allocation-free.
	for i := 1; i < len(prs); i++ {
		for j := i; j > 0 && prs[j].load < prs[j-1].load; j-- {
			prs[j], prs[j-1] = prs[j-1], prs[j]
		}
	}
	ms.prs = prs
	return prs
}

// Estimate answers the aggregate query with the same intersection
// semantics as query.EstimateGeneralized, visiting only the ECs whose
// bounding box can overlap the most selective predicate's grid range.
func (ix *ECIndex) Estimate(q query.Query) float64 {
	if len(q.Dims) == 0 {
		return ix.estimateSAOnly(q)
	}
	ms := ix.getMS()
	est := ix.estimate(q, ms)
	ix.scratch.Put(ms)
	return est
}

// EstimateScratch answers like Estimate but reuses caller-owned scratch
// state instead of the internal pool; see Scratch.
func (ix *ECIndex) EstimateScratch(q query.Query, sc *Scratch) float64 {
	if len(q.Dims) == 0 {
		return ix.estimateSAOnly(q)
	}
	return ix.estimate(q, &sc.ms)
}

// estimateSAOnly answers a λ=0 query: every EC overlaps fully, so the
// release-wide prefix sums answer COUNT/SUM/AVG without touching any EC
// or scratch; MIN/MAX scan the (small) SA domain for in-range support.
func (ix *ECIndex) estimateSAOnly(q query.Query) float64 {
	lo, hi := q.SALo, q.SAHi
	if lo < 0 {
		lo = 0
	}
	if hi >= len(ix.totalSA)-1 {
		hi = len(ix.totalSA) - 2
	}
	if lo > hi {
		return query.FinishAgg(q.Agg, 0, 0, -1, -1)
	}
	cnt := float64(ix.totalSA[hi+1] - ix.totalSA[lo])
	if q.Agg.IsCount() {
		return cnt
	}
	sum := float64(ix.totalSAW[hi+1] - ix.totalSAW[lo])
	min, max := -1, -1
	for v := lo; v <= hi; v++ {
		if ix.totalSA[v+1] > ix.totalSA[v] {
			if min == -1 {
				min = v
			}
			max = v
		}
	}
	return query.FinishAgg(q.Agg, cnt, sum, min, max)
}

// overlapFracs computes each candidate's box-overlap fraction into the
// scratch fracs buffer. It is the columnar twin of query.OverlapFraction
// with the loop nest inverted: one pass per predicate dimension over the
// flat Lo/Hi columns, so every pass streams a single column (Hilbert-
// clustered candidate IDs keep the reads on neighbouring cache lines).
// Per candidate the float operations and their order are exactly those of
// query.OverlapFraction — the min/max are open-coded (the inputs are
// validated finite, where a > b agrees with math.Max), and a fraction
// that reaches zero is skipped by later passes just as the row form
// returns early — so indexed and linear estimates agree to rounding of
// their (differently ordered) sums.
func (ix *ECIndex) overlapFracs(cand []int32, q query.Query, ms *markSet) []float64 {
	fracs := ms.fracs[:0]
	for range cand {
		fracs = append(fracs, 1)
	}
	ms.fracs = fracs
	for i, d := range q.Dims {
		los, his := ix.cols.Lo[d], ix.cols.Hi[d]
		qlo, qhi := q.Lo[i], q.Hi[i]
		if ix.isCat[d] {
			// Discrete overlap over leaf ranks.
			for j, id := range cand {
				f := fracs[j]
				if f == 0 {
					continue
				}
				lo, hi := los[id], his[id]
				olo, ohi := lo, hi
				if qlo > olo {
					olo = qlo
				}
				if qhi < ohi {
					ohi = qhi
				}
				if olo > ohi {
					fracs[j] = 0
					continue
				}
				fracs[j] = f * (ohi - olo + 1) / (hi - lo + 1)
			}
		} else {
			for j, id := range cand {
				f := fracs[j]
				if f == 0 {
					continue
				}
				lo, hi := los[id], his[id]
				if hi == lo {
					if lo < qlo || lo > qhi {
						fracs[j] = 0
					}
					continue // point box inside range: full overlap
				}
				olo, ohi := lo, hi
				if qlo > olo {
					olo = qlo
				}
				if qhi < ohi {
					ohi = qhi
				}
				if olo >= ohi {
					// Grazing contact (olo == ohi) is a zero-measure
					// intersection of a positive-width box, so it counts
					// as no overlap, same as disjoint ranges.
					fracs[j] = 0
					continue
				}
				fracs[j] = f * (ohi - olo) / (hi - lo)
			}
		}
	}
	return fracs
}

// estimate is the λ ≥ 1 path; ms must be non-nil. The per-candidate work
// is entirely columnar: survivors are gathered once, their box-overlap
// fractions computed column by column, and the SA range statistics read
// from the prefix arenas with the domain clamp hoisted out of the loop.
func (ix *ECIndex) estimate(q query.Query, ms *markSet) float64 {
	cols := ix.cols
	salo, sahi := q.SALo, q.SAHi
	if salo < 0 {
		salo = 0
	}
	if sahi >= cols.M {
		sahi = cols.M - 1
	}
	if salo > sahi {
		// Empty SA range: every candidate contributes zero mass.
		return query.FinishAgg(q.Agg, 0, 0, -1, -1)
	}
	cand := ix.collect(q, ms)
	fracs := ix.overlapFracs(cand, q, ms)
	stride := cols.M + 1
	if q.Agg.IsCount() {
		est := 0.0
		pfx := cols.SAPrefix
		for j, id := range cand {
			f := fracs[j]
			if f == 0 {
				continue
			}
			base := int(id) * stride
			est += f * float64(pfx[base+sahi+1]-pfx[base+salo])
		}
		return est
	}
	var cnt, sum float64
	min, max := -1, -1
	for j, id := range cand {
		f := fracs[j]
		if f == 0 {
			continue
		}
		base := int(id) * stride
		switch q.Agg {
		case query.AggSum:
			sum += f * float64(cols.SAWPrefix[base+sahi+1]-cols.SAWPrefix[base+salo])
		case query.AggAvg:
			cnt += f * float64(cols.SAPrefix[base+sahi+1]-cols.SAPrefix[base+salo])
			sum += f * float64(cols.SAWPrefix[base+sahi+1]-cols.SAWPrefix[base+salo])
		case query.AggMin:
			if v := cols.SARangeMin(int(id), salo, sahi); v >= 0 && (min == -1 || v < min) {
				min = v
			}
		case query.AggMax:
			if v := cols.SARangeMax(int(id), salo, sahi); v > max {
				max = v
			}
		}
	}
	return query.FinishAgg(q.Agg, cnt, sum, min, max)
}

// collect gathers each distinct EC that survives grid pruning into the
// scratch candidate buffer. The planner folds in predicates greedily by
// ascending load (pruneDims orders them): pass 1 seeds the survivor set
// from the most selective range, and each further pass intersects the
// next range, advancing survivors one epoch — an EC survives only if its
// box overlaps every folded grid range — before the exact per-box
// verification the caller performs. Ranges spanning a dimension's whole
// directory are skipped after the first: they contain every EC, so they
// prune nothing and would only add their full traversal cost. Every pass
// is one sequential scan of a contiguous ID-arena segment.
func (ix *ECIndex) collect(q query.Query, ms *markSet) []int32 {
	prs := ix.pruneDims(q, ms)
	passes := prs[:1]
	for _, pr := range prs[1:] {
		g := &ix.dims[q.Dims[pr.pred]]
		if pr.c0 == 0 && pr.c1 == g.n-1 {
			continue
		}
		passes = append(passes, pr)
	}
	ms.reset(len(ix.ecs), len(passes))
	cand := ms.cand[:0]
	a := passes[0]
	ga := &ix.dims[q.Dims[a.pred]]
	seg := ga.ids[ga.starts[a.c0]:ga.starts[a.c1+1]]
	mark := ms.mark
	if len(passes) == 1 {
		epoch := ms.epoch
		for _, id := range seg {
			if mark[id] != epoch {
				mark[id] = epoch
				cand = append(cand, id)
			}
		}
		ms.cand = cand
		return cand
	}
	// Pass 1: tag everything in the most selective range with epoch.
	for _, id := range seg {
		mark[id] = ms.epoch
	}
	// Passes 2..K: an id tagged epoch+k−2 that appears in pass k's range
	// advances to epoch+k−1; the last pass collects its survivors, the
	// retag also deduping ids spanning several cells of that range.
	for k := 1; k < len(passes); k++ {
		b := passes[k]
		gb := &ix.dims[q.Dims[b.pred]]
		prev := ms.epoch + uint32(k-1)
		last := k == len(passes)-1
		for _, id := range gb.ids[gb.starts[b.c0]:gb.starts[b.c1+1]] {
			if mark[id] == prev {
				mark[id] = prev + 1
				if last {
					cand = append(cand, id)
				}
			}
		}
	}
	ms.cand = cand
	return cand
}

// Candidates returns how many distinct ECs the index would verify for the
// query — the pruning effectiveness the benchmarks measure. A query with
// no QI predicates verifies none (the global prefix sums answer it).
func (ix *ECIndex) Candidates(q query.Query) int {
	if len(q.Dims) == 0 {
		return 0
	}
	ms := ix.getMS()
	n := len(ix.collect(q, ms))
	ix.scratch.Put(ms)
	return n
}
