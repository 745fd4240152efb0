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

// superBlocks is the block count of a superblock, the second zone-map
// level: a query classifies the 16 blocks of a superblock its box misses
// or holds with one test, and only those of the others one by one.
const superBlocks = 16

// TupleBlocks is the serving layout of a perturbed release: the published
// tuples as one float64 column per QI dimension plus the perturbed SA
// column, cut into blockRows-row blocks, and the blocks grouped into
// superblocks of superBlocks. Each block and superblock carries a zone
// map (the per-dimension min and max of its rows) and the histogram of
// its SA values. A query skips the superblocks and blocks its box misses,
// adds the histogram of each one inside its box and scans the rows of
// the blocks on its boundary only. The observed counts are those of a
// row scan, which is why the answer keeps its bits.
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

	m      int   // SA domain size
	blocks zones // per block
	supers zones // per superblock, folded from blocks
}

// zones holds the summaries of one level of row ranges: range u's min and
// max in dimension j at lo[u·d+j] and hi[u·d+j], its SA histogram at
// hist[u·m] … hist[(u+1)·m].
type zones struct {
	lo, hi []float64
	hist   []int32
}

// newZones allocates zeroed summaries of units ranges over d dimensions
// and m SA values.
func newZones(units, d, m int) zones {
	return zones{lo: make([]float64, units*d), hi: make([]float64, units*d), hist: make([]int32, units*m)}
}

// BlockCounts is what one query did with a TupleBlocks' blocks: skipped
// by the zone map, answered from the SA histogram, or scanned row by row.
// The blocks of a superblock skipped or answered whole count one by one,
// as their own zone maps classify them.
type BlockCounts struct {
	Skipped, Summarized, Scanned int
}

// newTupleBlocks derives the block and superblock summaries over
// validated columns; every SA index must lie in [0, m). The columns are
// kept, not copied.
func newTupleBlocks(m int, qi [][]float64, sa []int32) *TupleBlocks {
	n, d := len(sa), len(qi)
	nb := (n + blockRows - 1) / blockRows
	tb := &TupleBlocks{QI: qi, SA: sa, m: m, blocks: newZones(nb, d, m)}
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
			tb.blocks.lo[b*d+j], tb.blocks.hi[b*d+j] = lo, hi
		}
	}
	for i, v := range sa {
		tb.blocks.hist[i/blockRows*m+int(v)]++
	}
	// A superblock's zone map spans its blocks' and its histogram sums
	// theirs.
	tb.supers = newZones((nb+superBlocks-1)/superBlocks, d, m)
	for b := 0; b < nb; b++ {
		s := b / superBlocks
		for j := 0; j < d; j++ {
			lo, hi := tb.blocks.lo[b*d+j], tb.blocks.hi[b*d+j]
			if b%superBlocks == 0 || lo < tb.supers.lo[s*d+j] {
				tb.supers.lo[s*d+j] = lo
			}
			if b%superBlocks == 0 || hi > tb.supers.hi[s*d+j] {
				tb.supers.hi[s*d+j] = hi
			}
		}
		for v, c := range tb.blocks.hist[b*m : (b+1)*m] {
			tb.supers.hist[s*m+v] += c
		}
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
// predicates, superblock by superblock and block by block.
func (tb *TupleBlocks) scan(q query.Query, observed []int) BlockCounts {
	var bc BlockCounts
	d, k := len(tb.QI), len(q.Dims)
	nb := (len(tb.SA) + blockRows - 1) / blockRows
	// The predicates a superblock's and a block's zone maps straddle: a
	// block is tested only on its superblock's, its rows only on its own.
	var arr [3 * 8]int // room for queries of up to 8 predicates
	buf := arr[:]
	if 3*k > len(arr) {
		buf = make([]int, 3*k)
	}
	all, sup, blk := buf[:k], buf[k:k:2*k], buf[2*k:2*k:3*k]
	for i := range all {
		all[i] = i
	}
	for s, b0 := 0, 0; b0 < nb; s, b0 = s+1, b0+superBlocks {
		b1 := min(b0+superBlocks, nb)
		var hit bool
		sup, hit = tb.supers.straddled(sup[:0], s, d, &q, all)
		switch {
		case !hit:
			bc.Skipped += b1 - b0
		case len(sup) == 0:
			bc.Summarized += b1 - b0
			tb.supers.count(s, tb.m, observed)
		default:
			for b := b0; b < b1; b++ {
				blk, hit = tb.blocks.straddled(blk[:0], b, d, &q, sup)
				switch {
				case !hit:
					bc.Skipped++
				case len(blk) == 0:
					bc.Summarized++
					tb.blocks.count(b, tb.m, observed)
				default:
					bc.Scanned++
					tb.scanBlock(b, &q, blk, observed)
				}
			}
		}
	}
	return bc
}

// straddled appends to dst the predicates among preds, indices into
// q.Dims, whose range the zone map of range u crosses, and reports
// whether u can hold a match: false when its zone map misses the range
// of one of them.
func (z *zones) straddled(dst []int, u, d int, q *query.Query, preds []int) ([]int, bool) {
	lo, hi := z.lo[u*d:(u+1)*d], z.hi[u*d:(u+1)*d]
	for _, i := range preds {
		j := q.Dims[i]
		if hi[j] < q.Lo[i] || lo[j] > q.Hi[i] {
			return dst, false
		}
		if lo[j] < q.Lo[i] || hi[j] > q.Hi[i] {
			dst = append(dst, i)
		}
	}
	return dst, true
}

// count adds range u's SA histogram to observed.
func (z *zones) count(u, m int, observed []int) {
	for v, c := range z.hist[u*m : (u+1)*m] {
		observed[v] += int(c)
	}
}

// scanBlock adds to observed the SA counts of block b's rows inside the
// predicates preds, which its zone map straddles; its rows meet q's other
// predicates.
func (tb *TupleBlocks) scanBlock(b int, q *query.Query, preds []int, observed []int) {
	d := len(tb.QI)
	lo, hi := b*blockRows, min((b+1)*blockRows, len(tb.SA))
	match := ^uint64(0)
	for _, i := range preds {
		j := q.Dims[i]
		match &= rowMask(tb.QI[j][lo:hi], tb.blocks.lo[b*d+j], tb.blocks.hi[b*d+j], q.Lo[i], q.Hi[i])
		if match == 0 {
			return
		}
	}
	sa := tb.SA[lo:hi]
	for ; match != 0; match &= match - 1 {
		observed[sa[bits.TrailingZeros64(match)]]++
	}
}

// rowMask returns the mask of the rows of col, at most blockRows of them
// with zone map [zlo, zhi], whose value lies in [lo, hi]. It tests only
// the bounds the zone map crosses: rows at most zhi ≤ hi need only
// v ≥ lo, rows at least zlo ≥ lo only v ≤ hi.
func rowMask(col []float64, zlo, zhi, lo, hi float64) uint64 {
	switch {
	case zhi <= hi:
		return atLeast(col, lo)
	case zlo >= lo:
		return atMost(col, hi)
	}
	return between(col, lo, hi)
}

// The mask kernels set bit r for row r of col (at most blockRows rows)
// when the row meets their bound. Each comparison becomes a bit shifted
// into place, eight rows per step, so the loop has no branch per row: a
// boundary block's rows fall either side of a bound by construction,
// which a per-row branch would mispredict.

func atLeast(col []float64, lo float64) uint64 {
	var mask uint64
	r := 0
	for ; r+8 <= len(col); r += 8 {
		c := (*[8]float64)(col[r:])
		mask |= (b2u(c[0] >= lo) | b2u(c[1] >= lo)<<1 | b2u(c[2] >= lo)<<2 | b2u(c[3] >= lo)<<3 |
			b2u(c[4] >= lo)<<4 | b2u(c[5] >= lo)<<5 | b2u(c[6] >= lo)<<6 | b2u(c[7] >= lo)<<7) << r
	}
	for ; r < len(col); r++ {
		mask |= b2u(col[r] >= lo) << r
	}
	return mask
}

func atMost(col []float64, hi float64) uint64 {
	var mask uint64
	r := 0
	for ; r+8 <= len(col); r += 8 {
		c := (*[8]float64)(col[r:])
		mask |= (b2u(c[0] <= hi) | b2u(c[1] <= hi)<<1 | b2u(c[2] <= hi)<<2 | b2u(c[3] <= hi)<<3 |
			b2u(c[4] <= hi)<<4 | b2u(c[5] <= hi)<<5 | b2u(c[6] <= hi)<<6 | b2u(c[7] <= hi)<<7) << r
	}
	for ; r < len(col); r++ {
		mask |= b2u(col[r] <= hi) << r
	}
	return mask
}

func between(col []float64, lo, hi float64) uint64 {
	var mask uint64
	r := 0
	for ; r+8 <= len(col); r += 8 {
		c := (*[8]float64)(col[r:])
		mask |= (b2u(c[0] >= lo)&b2u(c[0] <= hi) | (b2u(c[1] >= lo)&b2u(c[1] <= hi))<<1 |
			(b2u(c[2] >= lo)&b2u(c[2] <= hi))<<2 | (b2u(c[3] >= lo)&b2u(c[3] <= hi))<<3 |
			(b2u(c[4] >= lo)&b2u(c[4] <= hi))<<4 | (b2u(c[5] >= lo)&b2u(c[5] <= hi))<<5 |
			(b2u(c[6] >= lo)&b2u(c[6] <= hi))<<6 | (b2u(c[7] >= lo)&b2u(c[7] <= hi))<<7) << r
	}
	for ; r < len(col); r++ {
		mask |= b2u(col[r] >= lo) & b2u(col[r] <= hi) << r
	}
	return mask
}

// b2u is 1 for true and 0 for false; the compiler turns it into a SETcc.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
