package burel

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/hilbert"
	"repro/internal/likeness"
	"repro/internal/microdata"
)

// Options configures a BUREL run.
type Options struct {
	// Beta is the β-likeness threshold (> 0).
	Beta float64
	// Variant selects enhanced (default) or basic β-likeness.
	Variant likeness.Variant
	// Seed drives the EC-seeding randomness; runs are deterministic for
	// a fixed seed.
	Seed int64
	// HilbertBits is the per-dimension resolution of the space-filling
	// curve (default 10; capped at 32 and so that dims·bits ≤ 63).
	HilbertBits int
	// Headroom shrinks the Lemma 2 budget during bucketization to
	// f(p_ℓ)·(1−Headroom), reserving slack for the reallocation phase:
	// biSplit's integer halving drifts each bucket's EC share by up to
	// ~1/|G| from exact proportionality, so buckets packed right up to
	// the Theorem 1 boundary would make even the root split ineligible.
	// Defaults to 0.05; 0 means default, negative disables.
	Headroom float64
	// BoundNegative additionally bounds negative information gain
	// symmetrically (q_v ≥ p_v / (1 + min{β, −ln p_v})), the §3/§7
	// extension that further hardens against deFinetti-style attacks.
	// Segments must then contain every SA value, so expect much larger
	// equivalence classes.
	BoundNegative bool
}

// defaultHeadroom is the bucketization slack fraction; see Options.Headroom.
const defaultHeadroom = 0.05

// Result carries the anonymization output along with the model and the
// bucketization, which the experiments inspect.
type Result struct {
	Partition *microdata.Partition
	Model     *likeness.Model
	Segments  *SegmentPartition
	NumECs    int
}

// Anonymize runs BUREL end-to-end on the table and returns a partition into
// equivalence classes, each of which satisfies β-likeness by Theorem 1.
func Anonymize(t *microdata.Table, opts Options) (*Result, error) {
	return AnonymizeContext(context.Background(), t, opts)
}

// AnonymizeContext is Anonymize with cooperative cancellation: ctx is
// checked between phases and once per materialized EC during the
// reallocation phase, so a canceled build (store shutdown, abandoned
// request) stops burning CPU instead of running to completion.
func AnonymizeContext(ctx context.Context, t *microdata.Table, opts Options) (*Result, error) {
	model, err := likeness.NewModel(opts.Beta, t)
	if err != nil {
		return nil, err
	}
	model.Variant = opts.Variant
	model.BoundNegative = opts.BoundNegative
	if t.Len() == 0 {
		return nil, fmt.Errorf("burel: empty table")
	}

	// Phase 1: bucketize SA values (DPpartition), reserving headroom so
	// the reallocation phase can split ECs despite integer rounding.
	headroom := opts.Headroom
	if headroom == 0 {
		headroom = defaultHeadroom
	}
	if headroom < 0 {
		headroom = 0
	}
	fDP := func(p float64) float64 { return model.MaxFreq(p) * (1 - headroom) }
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp, err := DPPartition(model.P, fDP)
	if err != nil {
		return nil, err
	}

	// Materialize the tuple buckets: all tuples whose SA value falls in
	// segment s form bucket s.
	numBuckets := sp.NumBuckets()
	valueToBucket := make([]int, len(model.P))
	for i := range valueToBucket {
		valueToBucket[i] = -1
	}
	for s := 0; s < numBuckets; s++ {
		for _, v := range sp.Segment(s) {
			valueToBucket[v] = s
		}
	}
	bucketRows := make([][]int, numBuckets)
	for r, tp := range t.Tuples {
		s := valueToBucket[tp.SA]
		if s < 0 {
			return nil, fmt.Errorf("burel: tuple %d carries SA value %d with zero overall frequency", r, tp.SA)
		}
		bucketRows[s] = append(bucketRows[s], r)
	}
	sizes := make([]int, numBuckets)
	minFreq := make([]float64, numBuckets)
	for s := 0; s < numBuckets; s++ {
		sizes[s] = len(bucketRows[s])
		minFreq[s] = sp.MinFreq(s)
	}

	// Phase 2: determine EC sizes (biSplit over the ECTree).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	leaves := BiSplit(sizes, minFreq, model.MaxFreq)

	// Phase 3: materialize ECs as curve slabs repaired to eligibility.
	ecs, err := MaterializeSlabsModelContext(ctx, t, leaves, model, opts.HilbertBits)
	if err != nil {
		return nil, err
	}
	// Hard guarantee: merge any still-violating EC into its neighbour
	// (Lemma 1 monotonicity makes this converge); in practice the slab
	// repair already complies and this is a no-op.
	ecs = RepairMerge(ecs, func(ec *microdata.EC) bool {
		return model.CheckCounts(ec.SACounts(t), ec.Len())
	})
	part := &microdata.Partition{Table: t, ECs: ecs}
	return &Result{Partition: part, Model: model, Segments: sp, NumECs: len(part.ECs)}, nil
}

// RepairMerge enforces a predicate over the partition's ECs by repeatedly
// merging each violating EC with its successor (wrapping to the
// predecessor at the end). By the monotonicity property (Lemma 1) the
// union's distribution distance never exceeds the worse of its parts, so
// the loop converges — in the worst case to the single root EC, which
// always satisfies any distribution constraint relative to itself.
func RepairMerge(ecs []microdata.EC, ok func(ec *microdata.EC) bool) []microdata.EC {
	changed := true
	for changed && len(ecs) > 1 {
		changed = false
		var next []microdata.EC
		for i := 0; i < len(ecs); i++ {
			if ok(&ecs[i]) || i+1 >= len(ecs) {
				next = append(next, ecs[i])
				continue
			}
			merged := microdata.EC{Rows: append(append([]int(nil), ecs[i].Rows...), ecs[i+1].Rows...)}
			next = append(next, merged)
			i++ // consumed the successor
			changed = true
		}
		// A trailing violator merges backward into its predecessor.
		if n := len(next); n > 1 && !ok(&next[n-1]) {
			next[n-2].Rows = append(next[n-2].Rows, next[n-1].Rows...)
			next = next[:n-1]
			changed = true
		}
		ecs = next
	}
	return ecs
}

// Retriever materializes equivalence classes from tuple buckets using the
// Hilbert-order nearest-neighbour heuristic of §4.5. It is shared with the
// SABRE re-implementation, which uses the same redistribution machinery.
type Retriever struct {
	buckets []*tupleBucket
}

// NewRetriever puts each bucket of table rows in Hilbert order (curveOrder).
func NewRetriever(t *microdata.Table, bucketRows [][]int, bits int) (*Retriever, error) {
	r := &Retriever{buckets: make([]*tupleBucket, len(bucketRows))}
	for s, rows := range bucketRows {
		ord, keys, err := curveOrder(t, rows, bits)
		if err != nil {
			return nil, err
		}
		sorted, sortedKeys := make([]int, len(rows)), make([]uint64, len(rows))
		for i, o := range ord {
			sorted[i], sortedKeys[i] = rows[o], keys[o]
		}
		r.buckets[s] = newTupleBucket(sorted, sortedKeys)
	}
	return r, nil
}

// SeedStrategy selects how Materialize picks each EC's seed tuple.
type SeedStrategy int

const (
	// AlignedSweep consumes every bucket strictly from its own lowest
	// unconsumed Hilbert position: EC k is the union of each bucket's
	// k-th curve slab. Buckets never fragment, so late ECs are as
	// compact as early ones; this gives the best information quality
	// and is the default.
	AlignedSweep SeedStrategy = iota
	// RandomSeed picks a random remaining tuple of the largest
	// contributing bucket, the literal reading of §4.5, and takes every
	// bucket's nearest neighbours of it; kept for the ablation
	// benchmarks.
	RandomSeed
)

// Materialize builds one EC per leaf size vector using the default
// AlignedSweep strategy.
func (r *Retriever) Materialize(leaves []ECSizes, rng *rand.Rand) []microdata.EC {
	return r.MaterializeSeeded(leaves, rng, AlignedSweep)
}

// MaterializeSeeded is Materialize with an explicit seed strategy.
func (r *Retriever) MaterializeSeeded(leaves []ECSizes, rng *rand.Rand, strategy SeedStrategy) []microdata.EC {
	ecs := make([]microdata.EC, 0, len(leaves))
	for _, leaf := range leaves {
		var ec microdata.EC
		switch strategy {
		case AlignedSweep:
			for j, x := range leaf {
				if x == 0 {
					continue
				}
				b := r.buckets[j]
				ec.Rows = append(ec.Rows, b.takeNearest(b.headKey(), x)...)
			}
		default:
			seedBucket := 0
			for j, x := range leaf {
				if x > leaf[seedBucket] {
					seedBucket = j
				}
			}
			if leaf[seedBucket] == 0 {
				continue // all-zero leaf; cannot arise from BiSplit
			}
			seedKey := r.buckets[seedBucket].pickSeedKey(rng)
			for j, x := range leaf {
				if x == 0 {
					continue
				}
				ec.Rows = append(ec.Rows, r.buckets[j].takeNearest(seedKey, x)...)
			}
		}
		if len(ec.Rows) > 0 {
			ecs = append(ecs, ec)
		}
	}
	return ecs
}

// curveOrder returns the positions of rows in ascending Hilbert order of
// their QI points over the table's QI domain, at bits per dimension
// under hilbert.NewMapper's rule, equal keys in position order, beside
// each row's key.
func curveOrder(t *microdata.Table, rows []int, bits int) ([]int32, []uint64, error) {
	box := t.Schema.Bounds()
	m, err := hilbert.NewMapper(box.Lo, box.Hi, bits, 63)
	if err != nil {
		return nil, nil, fmt.Errorf("burel: %w", err)
	}
	keys := make([]uint64, len(rows))
	buf := make([]uint32, len(box.Lo))
	for i, r := range rows {
		keys[i] = m.IndexInto(t.Tuples[r].QI, buf)
	}
	return hilbert.Order(keys), keys, nil
}
