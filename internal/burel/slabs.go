package burel

import (
	"context"

	"repro/internal/likeness"
	"repro/internal/microdata"
)

// MaterializeSlabs is BUREL's default reallocation materializer: it walks
// the table in Hilbert-curve order and cuts it into contiguous segments,
// one per ECTree leaf. Each segment starts at the leaf's prescribed size
// (the biSplit output of §4.4) and is extended tuple by tuple until it
// satisfies β-likeness directly — q_v ≤ f(p_v) for every SA value v
// (Definition 3). The per-value check subsumes Theorem 1's bucket-level
// worst case (which assumes every draw could be the bucket's rarest value
// and would force needless extension on real mixes) while still being
// exact.
//
// Compared with the literal §4.5 heuristic (per-bucket nearest-neighbour
// draws around a random seed, available as Retriever.MaterializeSeeded with
// RandomSeed), contiguous curve segments keep each EC's bounding box
// minimal even when the SA distribution varies across QI space: tuples are
// never teleported between distant regions to meet proportional quotas;
// instead a segment locally grows until its own mix is eligible. The
// trailing remainder joins the last EC; Anonymize's merge repair (Lemma 1)
// covers any residual violation.
func MaterializeSlabs(t *microdata.Table, leaves []ECSizes, saFreq []float64, f func(float64) float64, bits int) []microdata.EC {
	ecs, _ := materializeSlabs(context.Background(), t, leaves, saFreq, f, nil, bits)
	return ecs
}

// MaterializeSlabsModelContext materializes slabs against a full
// likeness model, honoring its BoundNegative floors in addition to the
// f(p) caps. ctx is checked once per materialized EC, and a canceled run
// returns the ctx error instead of the slabs.
func MaterializeSlabsModelContext(ctx context.Context, t *microdata.Table, leaves []ECSizes, model *likeness.Model, bits int) ([]microdata.EC, error) {
	var minf func(float64) float64
	if model.BoundNegative {
		minf = model.MinFreq
	}
	return materializeSlabs(ctx, t, leaves, model.P, model.MaxFreq, minf, bits)
}

func materializeSlabs(ctx context.Context, t *microdata.Table, leaves []ECSizes, saFreq []float64, f func(float64) float64, minf func(float64) float64, bits int) ([]microdata.EC, error) {
	n := t.Len()
	if n == 0 || len(leaves) == 0 {
		return nil, nil
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	ord, _, err := curveOrder(t, order, bits)
	if err != nil {
		return nil, err
	}
	for i, o := range ord {
		order[i] = int(o)
	}

	// Per-value frequency caps; count_v ≤ cap_v·|G| (+ integer slack).
	caps := make([]float64, len(saFreq))
	for v, p := range saFreq {
		caps[v] = f(p)
	}
	// Optional per-value floors (negative-gain extension).
	var floors []float64
	if minf != nil {
		floors = make([]float64, len(saFreq))
		for v, p := range saFreq {
			floors[v] = minf(p)
		}
	}

	counts := make([]int, len(saFreq))
	var ecs []microdata.EC
	pos := 0
	for li := 0; li < len(leaves) && pos < n; li++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		target := leaves[li].Total()
		if target <= 0 {
			continue
		}
		for v := range counts {
			counts[v] = 0
		}
		start := pos
		// Take the leaf's prescribed size...
		for pos < n && pos-start < target {
			counts[t.Tuples[order[pos]].SA]++
			pos++
		}
		// ...then extend until the segment satisfies the model.
		for pos < n && !(eligibleCounts(counts, pos-start, caps) &&
			aboveFloors(counts, pos-start, floors)) {
			counts[t.Tuples[order[pos]].SA]++
			pos++
		}
		ecs = append(ecs, microdata.EC{Rows: append([]int(nil), order[start:pos]...)})
	}
	if pos < n {
		// Remainder: join the last EC so no tuple is dropped.
		if len(ecs) == 0 {
			ecs = append(ecs, microdata.EC{})
		}
		last := &ecs[len(ecs)-1]
		last.Rows = append(last.Rows, order[pos:]...)
	}
	return ecs, nil
}

// aboveFloors checks count_v ≥ floor_v·g for every SA value (no-op when
// floors is nil).
func aboveFloors(counts []int, g int, floors []float64) bool {
	if floors == nil {
		return true
	}
	if g == 0 {
		return false
	}
	fg := float64(g)
	for v, x := range counts {
		if float64(x) < floors[v]*fg-combineEps {
			return false
		}
	}
	return true
}

// eligibleCounts checks count_v ≤ cap_v·g for every SA value.
func eligibleCounts(counts []int, g int, caps []float64) bool {
	if g == 0 {
		return false
	}
	fg := float64(g)
	for j, x := range counts {
		if x == 0 {
			continue
		}
		if float64(x) > caps[j]*fg+combineEps {
			return false
		}
	}
	return true
}
