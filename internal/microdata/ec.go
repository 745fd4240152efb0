package microdata

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// EC is an equivalence class: a set of rows of the source table that will be
// published with indistinguishable QI values. Rows index into Table.Tuples.
type EC struct {
	Rows []int
}

// Len returns |G|.
func (g *EC) Len() int { return len(g.Rows) }

// SACounts returns the per-value SA counts within the EC.
func (g *EC) SACounts(t *Table) []int {
	counts := make([]int, len(t.Schema.SA.Values))
	for _, r := range g.Rows {
		counts[t.Tuples[r].SA]++
	}
	return counts
}

// SADistribution returns Q = (q_1, ..., q_m), the SA distribution in the EC.
func (g *EC) SADistribution(t *Table) []float64 {
	q := make([]float64, len(t.Schema.SA.Values))
	if len(g.Rows) == 0 {
		return q
	}
	inv := 1 / float64(len(g.Rows))
	for _, r := range g.Rows {
		q[t.Tuples[r].SA] += inv
	}
	return q
}

// Box is the generalized QI region of an EC: one interval per attribute.
// For categorical attributes the interval is over leaf ranks and is widened
// to the leaf span of the LCA when published (Eq. 3 semantics).
type Box struct {
	Lo, Hi []float64
}

// BoundingBox computes the minimum bounding box of the EC in QI space.
func (g *EC) BoundingBox(t *Table) Box {
	d := len(t.Schema.QI)
	b := Box{Lo: make([]float64, d), Hi: make([]float64, d)}
	for j := 0; j < d; j++ {
		b.Lo[j] = math.Inf(1)
		b.Hi[j] = math.Inf(-1)
	}
	for _, r := range g.Rows {
		for j, v := range t.Tuples[r].QI {
			if v < b.Lo[j] {
				b.Lo[j] = v
			}
			if v > b.Hi[j] {
				b.Hi[j] = v
			}
		}
	}
	return b
}

// InformationLoss computes IL(G) per Eq. 4 with uniform attribute weights
// w_i = 1/d: numeric attributes contribute the normalized range (Eq. 2),
// categorical ones the normalized LCA leaf count (Eq. 3).
func (g *EC) InformationLoss(t *Table) float64 {
	if len(g.Rows) == 0 {
		return 0
	}
	b := g.BoundingBox(t)
	d := len(t.Schema.QI)
	total := 0.0
	for j, a := range t.Schema.QI {
		switch a.Kind {
		case Numeric:
			total += (b.Hi[j] - b.Lo[j]) / (a.Max - a.Min)
		case Categorical:
			total += a.Hierarchy.GeneralizationLoss(int(b.Lo[j]), int(b.Hi[j]))
		}
	}
	return total / float64(d)
}

// Partition is a set of ECs covering a table; the output format of every
// generalization scheme in this repository.
type Partition struct {
	Table *Table
	ECs   []EC
}

// Validate checks that the partition covers every row exactly once and that
// no EC is empty.
func (p *Partition) Validate() error {
	seen := make([]bool, p.Table.Len())
	for i := range p.ECs {
		if len(p.ECs[i].Rows) == 0 {
			return fmt.Errorf("microdata: EC %d is empty", i)
		}
		for _, r := range p.ECs[i].Rows {
			if r < 0 || r >= len(seen) {
				return fmt.Errorf("microdata: EC %d references row %d outside table", i, r)
			}
			if seen[r] {
				return fmt.Errorf("microdata: row %d appears in more than one EC", r)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("microdata: row %d missing from partition", r)
		}
	}
	return nil
}

// AIL computes the Average Information Loss of the partition (Eq. 5):
// Σ |G|·IL(G) / |DB|.
func (p *Partition) AIL() float64 {
	if p.Table.Len() == 0 {
		return 0
	}
	total := 0.0
	for i := range p.ECs {
		g := &p.ECs[i]
		total += float64(g.Len()) * g.InformationLoss(p.Table)
	}
	return total / float64(p.Table.Len())
}

// MinECSize returns the size of the smallest EC (the k achieved in
// k-anonymity terms); 0 for an empty partition.
func (p *Partition) MinECSize() int {
	if len(p.ECs) == 0 {
		return 0
	}
	min := p.ECs[0].Len()
	for i := range p.ECs {
		if n := p.ECs[i].Len(); n < min {
			min = n
		}
	}
	return min
}

// PublishedEC is one row group of the released table: the generalized QI
// region plus the multiset of SA values (counts indexed by SA value). It
// is plain data; the reference estimators of internal/query fold its
// counts, and the serving layer's summaries live in ECColumns.
type PublishedEC struct {
	Box      Box
	SACounts []int
	Size     int
}

// Publish converts the partition into its release form. For categorical
// attributes the box is widened to the leaf span of the LCA, matching what
// a generalization-based release would actually print.
func (p *Partition) Publish() []PublishedEC {
	out := make([]PublishedEC, 0, len(p.ECs))
	for i := range p.ECs {
		g := &p.ECs[i]
		b := g.BoundingBox(p.Table)
		for j, a := range p.Table.Schema.QI {
			if a.Kind == Categorical {
				lo, hi := int(b.Lo[j]), int(b.Hi[j])
				if lo != hi {
					anc := a.Hierarchy.LCAOfRankRange(lo, hi)
					l, h := anc.LeafRange()
					b.Lo[j], b.Hi[j] = float64(l), float64(h)
				}
			}
		}
		out = append(out, PublishedEC{Box: b, SACounts: g.SACounts(p.Table), Size: g.Len()})
	}
	return out
}

// String renders a compact description of a published EC.
func (e PublishedEC) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "size=%d box=[", e.Size)
	for j := range e.Box.Lo {
		if j > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g..%g", e.Box.Lo[j], e.Box.Hi[j])
	}
	b.WriteString("]")
	return b.String()
}

// SortECsBySize orders ECs by descending size then first row; deterministic
// output ordering for tests and CLIs.
func (p *Partition) SortECsBySize() {
	sort.Slice(p.ECs, func(i, j int) bool {
		if len(p.ECs[i].Rows) != len(p.ECs[j].Rows) {
			return len(p.ECs[i].Rows) > len(p.ECs[j].Rows)
		}
		if len(p.ECs[i].Rows) == 0 || len(p.ECs[j].Rows) == 0 {
			return len(p.ECs[j].Rows) == 0
		}
		return p.ECs[i].Rows[0] < p.ECs[j].Rows[0]
	})
}
