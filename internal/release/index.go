package release

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/microdata"
	"repro/internal/query"
)

// ECIndex accelerates intersection-based aggregate estimation over a
// published set of equivalence classes. Each QI dimension carries a
// uniform grid of cells over the attribute domain, and each cell two
// cumulative EC bitsets: the ECs whose bounding box starts in that cell
// or an earlier one, and those whose box ends in it or a later one. An
// EC's box overlaps a predicate's cell range [c0, c1] exactly when it is
// in both the first set of c1 and the second set of c0, so a query ANDs
// two bitsets per predicate and reads the survivors out in ascending EC
// index — the data-skipping idea of per-block summaries applied to EC
// bounding boxes. Verification reads the EC store itself, a
// microdata.ECColumns: flat Lo/Hi columns and SA prefix arenas,
// cache-local because the ECs sit in Hilbert order (see hilbertOrder).
// Ascending EC index is the order the linear scan of the same ECs walks,
// and each survivor's term is formed as query.OverlapFraction forms it,
// so every indexed answer has the linear scan's bits.
//
// The index is immutable after Build and safe for concurrent queries.
type ECIndex struct {
	cols  *microdata.ECColumns
	isCat []bool
	dims  []dimGrid
	words int // ⌈|ECs|/64⌉: the length of every EC bitset

	// totalSA holds exclusive prefix sums of the whole release's SA
	// counts, answering predicate-free (λ=0) COUNT queries in O(1);
	// totalSAW holds the value-weighted sibling for SUM/AVG.
	totalSA  []int
	totalSAW []int64

	scratch sync.Pool
}

func (ix *ECIndex) getScratch() *Scratch {
	if v := ix.scratch.Get(); v != nil {
		return v.(*Scratch)
	}
	return &Scratch{}
}

// dimGrid is one dimension's cell directory. Cell c's bitsets are the
// words [c·w, (c+1)·w) of from and to, w = ECIndex.words: from holds the
// ECs whose box starts in a cell ≤ c, to those whose box ends in a cell
// ≥ c. Bits past the last EC are zero in every set.
type dimGrid struct {
	min      float64
	invW     float64 // cells per domain unit
	n        int     // cell count
	from, to []uint64
}

// MaxGridCells caps the per-dimension grid resolution a spec may request
// (Spec.Normalize enforces it at the API boundary); BuildIndex serves at
// most maxIndexCells of them.
const MaxGridCells = 4096

// maxIndexCells caps the cells BuildIndex gives a dimension: two bitsets
// per cell then cost at most 16 B per EC per dimension.
const maxIndexCells = 64

// BuildIndex constructs the index over an EC store, which it keeps and
// never modifies; the ECs keep their order, so callers put them in
// canonical order first (NewSnapshot and the JSON decode do). cellsPerDim
// ≤ 0 selects √|ECs| clamped to [16, 64], balancing directory size
// against pruning resolution; explicit values are capped at 64.
func BuildIndex(schema *microdata.Schema, cols *microdata.ECColumns, cellsPerDim int) *ECIndex {
	if cellsPerDim <= 0 {
		cellsPerDim = max(16, int(math.Sqrt(float64(cols.N))))
	}
	cellsPerDim = min(cellsPerDim, maxIndexCells)
	ix := &ECIndex{cols: cols, words: (cols.N + 63) / 64}

	m := cols.M
	ix.totalSA = make([]int, m+1)
	ix.totalSAW = make([]int64, m+1)
	for i := 0; i < cols.N; i++ {
		for v, c := range cols.SACounts[i*m : (i+1)*m] {
			ix.totalSA[v+1] += int(c)
			ix.totalSAW[v+1] += int64(v) * int64(c)
		}
	}
	for v := 1; v < len(ix.totalSA); v++ {
		ix.totalSA[v] += ix.totalSA[v-1]
		ix.totalSAW[v] += ix.totalSAW[v-1]
	}

	ix.isCat = make([]bool, len(schema.QI))
	for d, a := range schema.QI {
		ix.isCat[d] = a.Kind == microdata.Categorical
	}

	w := ix.words
	ix.dims = make([]dimGrid, len(schema.QI))
	for d, a := range schema.QI {
		var lo, hi float64
		if a.Kind == microdata.Numeric {
			lo, hi = a.Min, a.Max
		} else {
			lo, hi = 0, float64(a.Hierarchy.NumLeaves()-1)
		}
		g := dimGrid{min: lo, n: cellsPerDim}
		if hi > lo {
			g.invW = float64(cellsPerDim) / (hi - lo)
		}
		// One bit per EC in its start cell's from set and its end cell's
		// to set, then prefix-OR upward through from and downward
		// through to.
		g.from = make([]uint64, g.n*w)
		g.to = make([]uint64, g.n*w)
		for i, blo := range ix.cols.Lo[d] {
			bit := uint64(1) << (i & 63)
			g.from[g.cell(blo)*w+(i>>6)] |= bit
			g.to[g.cell(ix.cols.Hi[d][i])*w+(i>>6)] |= bit
		}
		for k := w; k < len(g.from); k++ {
			g.from[k] |= g.from[k-w]
		}
		for k := len(g.to) - w - 1; k >= 0; k-- {
			g.to[k] |= g.to[k+w]
		}
		ix.dims[d] = g
	}
	return ix
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

// Scratch is reusable per-caller estimator state: the candidate bitset,
// candidate list and overlap fractions that Estimate otherwise borrows
// from an internal pool. A long-lived worker (the batch engine of
// internal/engine) owns one Scratch and passes it to EstimateScratch on
// every call, so the hot path never touches the pool and the buffers are
// reused across queries and releases of any size. The zero value is
// ready to use; a Scratch must not be shared between concurrent calls.
type Scratch struct {
	acc   []uint64  // candidate bitset, ⌈|ECs|/64⌉ words
	cand  []int32   // candidate EC indices in ascending order
	fracs []float64 // per-candidate overlap fractions
}

// NumECs returns the number of indexed equivalence classes.
func (ix *ECIndex) NumECs() int { return ix.cols.N }

// Columns returns the EC store the index serves; callers must treat it
// as read-only.
func (ix *ECIndex) Columns() *microdata.ECColumns { return ix.cols }

// Estimate answers the aggregate query with the same intersection
// semantics, and the same bits, as query.EstimateGeneralized, visiting
// only the ECs whose bounding box can overlap every predicate's grid
// range.
func (ix *ECIndex) Estimate(q query.Query) float64 {
	if len(q.Dims) == 0 {
		return ix.estimateSAOnly(q)
	}
	sc := ix.getScratch()
	est := ix.estimate(q, sc)
	ix.scratch.Put(sc)
	return est
}

// EstimateScratch answers like Estimate but reuses caller-owned scratch
// state instead of the internal pool; see Scratch.
func (ix *ECIndex) EstimateScratch(q query.Query, sc *Scratch) float64 {
	if len(q.Dims) == 0 {
		return ix.estimateSAOnly(q)
	}
	return ix.estimate(q, sc)
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
// query.OverlapFraction — each dimension's ratio is formed first and then
// multiplied in, the min/max are open-coded (the inputs are validated
// finite, where a > b agrees with math.Max), and a fraction that reaches
// zero is skipped by later passes just as the row form returns early — so
// every term has the linear scan's bits.
func (ix *ECIndex) overlapFracs(cand []int32, q query.Query, sc *Scratch) []float64 {
	fracs := sc.fracs[:0]
	for range cand {
		fracs = append(fracs, 1)
	}
	sc.fracs = fracs
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
				fracs[j] = f * ((ohi - olo + 1) / (hi - lo + 1))
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
				fracs[j] = f * ((ohi - olo) / (hi - lo))
			}
		}
	}
	return fracs
}

// estimate is the λ ≥ 1 path; sc must be non-nil. The per-candidate work
// is entirely columnar: survivors are gathered once, in ascending EC
// index, their box-overlap fractions computed column by column, and the
// SA range statistics read from the prefix arenas with the domain clamp
// hoisted out of the loop. Terms are added in the linear scan's order.
func (ix *ECIndex) estimate(q query.Query, sc *Scratch) float64 {
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
	cand := ix.collect(q, sc)
	fracs := ix.overlapFracs(cand, q, sc)
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

// candidates ANDs, into the scratch accumulator, the two bitsets of every
// predicate — the ECs starting at or before the range's last cell and
// ending at or after its first — leaving the ECs whose box overlaps every
// predicate's grid range. The query must carry at least one predicate.
// Padding bits stay zero: no set of the directory has them.
func (ix *ECIndex) candidates(q query.Query, sc *Scratch) []uint64 {
	w := ix.words
	if cap(sc.acc) < w {
		sc.acc = make([]uint64, w)
	}
	acc := sc.acc[:w]
	for i, d := range q.Dims {
		g := &ix.dims[d]
		from := g.from[g.cell(q.Hi[i])*w:][:w]
		to := g.to[g.cell(q.Lo[i])*w:][:w]
		if i == 0 {
			for k := range acc {
				acc[k] = from[k] & to[k]
			}
			continue
		}
		for k := range acc {
			acc[k] &= from[k] & to[k]
		}
	}
	return acc
}

// collect lists the candidate ECs into the scratch candidate buffer in
// ascending EC index: the Hilbert order the linear scan walks.
func (ix *ECIndex) collect(q query.Query, sc *Scratch) []int32 {
	cand := sc.cand[:0]
	for k, word := range ix.candidates(q, sc) {
		for word != 0 {
			cand = append(cand, int32(k<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	sc.cand = cand
	return cand
}

// Candidates returns how many distinct ECs the index would verify for the
// query — the pruning effectiveness the benchmarks measure. A query with
// no QI predicates verifies none (the global prefix sums answer it).
func (ix *ECIndex) Candidates(q query.Query) int {
	if len(q.Dims) == 0 {
		return 0
	}
	sc := ix.getScratch()
	n := 0
	for _, word := range ix.candidates(q, sc) {
		n += bits.OnesCount64(word)
	}
	ix.scratch.Put(sc)
	return n
}
