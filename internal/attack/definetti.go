package attack

import (
	"context"
	"math"

	"repro/internal/microdata"
)

// GroupedRelease is the abstract publication format the deFinetti attack of
// Kifer (SIGMOD 2009) targets (§7 of the β-likeness paper): groups of
// tuples with exact QI values whose SA assignment is only known as a
// per-group multiset. Anatomy's ℓ-diverse release and any generalization
// partition both project onto it.
type GroupedRelease struct {
	Table    *microdata.Table
	Groups   []microdata.EC
	SACounts [][]int
}

// FromPartition views a generalization partition as a grouped release (the
// attacker additionally knows exact QIs here, which only strengthens the
// attack — a conservative evaluation).
func FromPartition(p *microdata.Partition) *GroupedRelease {
	g := &GroupedRelease{Table: p.Table, Groups: p.ECs}
	for i := range p.ECs {
		g.SACounts = append(g.SACounts, p.ECs[i].SACounts(p.Table))
	}
	return g
}

// DeFinetti runs a simplified deFinetti attack: starting from the uniform
// within-group assignment, it alternates between (a) learning a Naïve Bayes
// model of Pr[QI cell | SA value] from the current soft assignment and
// (b) re-estimating each group's assignment by Sinkhorn-scaling the NB
// likelihoods to the group's published SA multiset. After iters rounds each
// tuple is predicted as its highest-weight value; the returned accuracy is
// the fraction of correct predictions (evaluated against the true table).
//
// The attack is fully deterministic for a given release. ctx aborts it
// between Sinkhorn iterations and mid-pass through the groups, so a
// cancelled evaluation job stops burning CPU instead of running the
// remaining rounds to completion.
func DeFinetti(ctx context.Context, rel *GroupedRelease, iters int) (float64, error) {
	t := rel.Table
	n := t.Len()
	if n == 0 {
		return 0, nil
	}
	m := len(t.Schema.SA.Values)
	d := len(t.Schema.QI)

	// Discretize QI cells per attribute.
	card := make([]int, d)
	offset := make([]float64, d)
	for j, a := range t.Schema.QI {
		card[j] = a.Cardinality()
		offset[j], _ = a.Bounds()
	}
	cell := func(r, j int) int {
		x := int(t.Tuples[r].QI[j] - offset[j])
		if x < 0 {
			x = 0
		}
		if x >= card[j] {
			x = card[j] - 1
		}
		return x
	}

	// w[r][v]: soft assignment, initialized to the group multiset share.
	w := make([][]float64, n)
	for gi := range rel.Groups {
		size := float64(len(rel.Groups[gi].Rows))
		for _, r := range rel.Groups[gi].Rows {
			w[r] = make([]float64, m)
			for v, c := range rel.SACounts[gi] {
				w[r][v] = float64(c) / size
			}
		}
	}

	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// (a) Learn smoothed conditionals from the soft assignment.
		cond := make([][][]float64, d)
		mass := make([]float64, m)
		for r := 0; r < n; r++ {
			for v := 0; v < m; v++ {
				mass[v] += w[r][v]
			}
		}
		for j := 0; j < d; j++ {
			cond[j] = make([][]float64, card[j])
			for x := range cond[j] {
				cond[j][x] = make([]float64, m)
			}
			for r := 0; r < n; r++ {
				x := cell(r, j)
				for v := 0; v < m; v++ {
					cond[j][x][v] += w[r][v]
				}
			}
			for x := range cond[j] {
				for v := 0; v < m; v++ {
					// Laplace smoothing keeps zero cells harmless.
					cond[j][x][v] = (cond[j][x][v] + 1) / (mass[v] + float64(card[j]))
				}
			}
		}
		// (b) Re-estimate each group's assignment.
		for gi := range rel.Groups {
			// The group loop dominates the iteration's cost on large
			// releases; poll cancellation often enough that Store.Close
			// never waits for a full pass.
			if gi&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			rows := rel.Groups[gi].Rows
			counts := rel.SACounts[gi]
			// Log-likelihood scores per (tuple, value) restricted to
			// values present in the group.
			for _, r := range rows {
				for v := 0; v < m; v++ {
					if counts[v] == 0 {
						w[r][v] = 0
						continue
					}
					s := 0.0
					for j := 0; j < d; j++ {
						s += math.Log(cond[j][cell(r, j)][v])
					}
					w[r][v] = math.Exp(s / float64(d)) // dampened
				}
			}
			sinkhorn(w, rows, counts, 4)
		}
	}

	hits := 0
	for r := 0; r < n; r++ {
		best, bestW := 0, -1.0
		for v := 0; v < m; v++ {
			if w[r][v] > bestW {
				best, bestW = v, w[r][v]
			}
		}
		if best == t.Tuples[r].SA {
			hits++
		}
	}
	return float64(hits) / float64(n), nil
}

// sinkhorn scales the group's weight block so rows sum to 1 and value
// columns sum to the published multiset counts.
func sinkhorn(w [][]float64, rows []int, counts []int, rounds int) {
	for round := 0; round < rounds; round++ {
		// Column scaling to the multiset counts.
		for v := range counts {
			if counts[v] == 0 {
				continue
			}
			sum := 0.0
			for _, r := range rows {
				sum += w[r][v]
			}
			if sum <= 0 {
				continue
			}
			scale := float64(counts[v]) / sum
			for _, r := range rows {
				w[r][v] *= scale
			}
		}
		// Row normalization to unit mass.
		for _, r := range rows {
			sum := 0.0
			for v := range counts {
				sum += w[r][v]
			}
			if sum <= 0 {
				continue
			}
			for v := range counts {
				w[r][v] /= sum
			}
		}
	}
}
