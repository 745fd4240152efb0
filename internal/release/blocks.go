package release

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/microdata"
	"repro/internal/perturb"
	"repro/internal/query"
)

// blockRows is the row count of a tuple block. It is one machine word of
// rows, so a boundary block's row matches fit one uint64 mask, and small
// enough that a block of Hilbert-adjacent rows keeps a tight zone map:
// on 50k CENSUS rows (QI = 5) a λ=3, θ=0.1 query skips 76% of the blocks
// and answers 7% from their histograms, scanning the other 16%.
const blockRows = 64

// TupleBlocks is the serving layout of a perturbed release: the published
// tuples as one float64 column per QI dimension plus the perturbed SA
// column, cut into blockRows-row blocks. Each block carries a zone map
// (the per-dimension min and max of its rows) and the histogram of its
// SA values. A query skips the blocks its box misses, adds the histogram
// of each block inside its box and scans the rows of the blocks on its
// boundary only. The observed counts are those of a row scan, which is
// why the answer keeps its bits.
//
// NewSnapshot lays the rows out in canonical order (CanonicalizeTuples),
// which is what makes the zone maps tight; DecodeSnapshot keeps the order
// the file holds. The zone maps and histograms are derived state, rebuilt
// from the columns and never persisted. Immutable after construction and
// safe for concurrent readers.
type TupleBlocks struct {
	// QI[j][i] is row i's value in dimension j; SA[i] is its perturbed SA
	// value index.
	QI [][]float64
	SA []int32

	m        int       // SA domain size
	zlo, zhi []float64 // block b's min and max in dimension j at b·d+j
	hist     []int32   // block b's SA histogram at b·m … (b+1)·m
}

// BlockCounts is what one query did with a TupleBlocks' blocks: skipped
// by the zone map, answered from the SA histogram, or scanned row by row.
type BlockCounts struct {
	Skipped, Summarized, Scanned int
}

// newTupleBlocks derives the block summaries over validated columns;
// every SA index must lie in [0, m). The columns are kept, not copied.
func newTupleBlocks(m int, qi [][]float64, sa []int32) *TupleBlocks {
	n, d := len(sa), len(qi)
	nb := (n + blockRows - 1) / blockRows
	tb := &TupleBlocks{
		QI: qi, SA: sa, m: m,
		zlo:  make([]float64, nb*d),
		zhi:  make([]float64, nb*d),
		hist: make([]int32, nb*m),
	}
	for j, col := range qi {
		for b := 0; b < nb; b++ {
			rows := col[b*blockRows : min((b+1)*blockRows, n)]
			lo, hi := rows[0], rows[0]
			// Plain comparisons, not the min and max builtins: the values
			// are finite, so the builtins' NaN and signed-zero handling
			// would only cost time.
			for _, v := range rows[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			tb.zlo[b*d+j], tb.zhi[b*d+j] = lo, hi
		}
	}
	for i, v := range sa {
		tb.hist[i/blockRows*m+int(v)]++
	}
	return tb
}

// tupleCols is a table body in column form: qi[j][i] is row i's value in
// dimension j, sa[i] its SA index. It is the form the binary snapshot
// section stores, whatever the release kind.
type tupleCols struct {
	qi [][]float64
	sa []int32
}

// newTupleCols allocates zeroed columns for rows tuples of d dimensions,
// the QI columns carved from one arena.
func newTupleCols(rows, d int) *tupleCols {
	arena := make([]float64, rows*d)
	c := &tupleCols{qi: make([][]float64, d), sa: make([]int32, rows)}
	for j := range c.qi {
		c.qi[j] = arena[j*rows : (j+1)*rows : (j+1)*rows]
	}
	return c
}

// tableBlocks copies a table into the canonical block layout. The table
// is only read.
func tableBlocks(t *microdata.Table) (*TupleBlocks, error) {
	c, err := tableColumns(t)
	if err != nil {
		return nil, err
	}
	CanonicalizeTuples(t.Schema, c.qi, c.sa)
	return newTupleBlocks(len(t.Schema.SA.Values), c.qi, c.sa), nil
}

// tableColumns copies a table body into columns, refusing tuples the
// columns cannot hold: the wrong width, or an SA index outside the
// schema's domain.
func tableColumns(t *microdata.Table) (*tupleCols, error) {
	n, d := t.Len(), len(t.Schema.QI)
	if int64(n) > math.MaxInt32 {
		return nil, fmt.Errorf("release: %d rows exceed the snapshot format's u32 count", n)
	}
	c := newTupleCols(n, d)
	for i := range t.Tuples {
		tp := &t.Tuples[i]
		if len(tp.QI) != d {
			return nil, fmt.Errorf("release: tuple %d spans %d dims, schema has %d", i, len(tp.QI), d)
		}
		if err := t.Schema.SA.CheckIndex(tp.SA); err != nil {
			return nil, fmt.Errorf("release: tuple %d: %w", i, err)
		}
		for j, v := range tp.QI {
			c.qi[j][i] = v
		}
		c.sa[i] = int32(tp.SA)
	}
	return c, nil
}

// Len returns the number of tuples.
func (tb *TupleBlocks) Len() int { return len(tb.SA) }

// Estimate answers a validated, canonical query: the blocks' observed
// counts reconstructed through the scheme and folded by
// query.ReconstructAgg, exactly as query.EstimatePerturbed folds its row
// scan's.
func (tb *TupleBlocks) Estimate(s *perturb.Scheme, q query.Query) (float64, error) {
	observed := make([]int, tb.m)
	tb.scan(q, observed)
	return query.ReconstructAgg(s, observed, q)
}

// Blocks reports how a query's scan treats the blocks — the skipping
// effectiveness, as ECIndex.Candidates reports the grid's pruning.
func (tb *TupleBlocks) Blocks(q query.Query) BlockCounts {
	return tb.scan(q, make([]int, tb.m))
}

// scan adds to observed the SA counts of the rows matching q's QI
// predicates, block by block.
func (tb *TupleBlocks) scan(q query.Query, observed []int) BlockCounts {
	var bc BlockCounts
	n, d, m := len(tb.SA), len(tb.QI), tb.m
	// Per block, the predicates its zone map straddles: only those are
	// tested row by row.
	straddle := make([]int, 0, len(q.Dims))
	for b, lo := 0, 0; lo < n; b, lo = b+1, lo+blockRows {
		zlo, zhi := tb.zlo[b*d:(b+1)*d], tb.zhi[b*d:(b+1)*d]
		straddle = straddle[:0]
		disjoint := false
		for i, j := range q.Dims {
			if zhi[j] < q.Lo[i] || zlo[j] > q.Hi[i] {
				disjoint = true
				break
			}
			if zlo[j] < q.Lo[i] || zhi[j] > q.Hi[i] {
				straddle = append(straddle, i)
			}
		}
		switch {
		case disjoint:
			bc.Skipped++
		case len(straddle) == 0:
			bc.Summarized++
			for v, c := range tb.hist[b*m : (b+1)*m] {
				observed[v] += int(c)
			}
		default:
			bc.Scanned++
			hi := min(lo+blockRows, n)
			match := ^uint64(0) >> (blockRows - (hi - lo))
			for _, i := range straddle {
				qlo, qhi := q.Lo[i], q.Hi[i]
				var in uint64
				for r, v := range tb.QI[q.Dims[i]][lo:hi] {
					if v >= qlo && v <= qhi {
						in |= 1 << r
					}
				}
				if match &= in; match == 0 {
					break
				}
			}
			for ; match != 0; match &= match - 1 {
				observed[tb.SA[lo+bits.TrailingZeros64(match)]]++
			}
		}
	}
	return bc
}
