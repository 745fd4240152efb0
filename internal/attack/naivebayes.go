// Package attack implements the adversarial analyses of §7: the Naïve
// Bayes attack of Cormode (KDD 2011) instantiated against generalized
// releases via Eq. 15–17, plus posterior-confidence probes that demonstrate
// the skewness attack against models without per-value bounds.
package attack

import (
	"math"

	"repro/internal/microdata"
)

// NaiveBayes is the Eq. 15 classifier learned from a published partition:
// it predicts a tuple's SA value as argmax_v Pr[v]·Π_j Pr[t_j | v], with the
// conditionals estimated from the release via Eq. 17.
type NaiveBayes struct {
	schema *microdata.Schema
	prior  []float64 // Pr[v_i] = p_i

	// condLog[j][x][i] = ln Pr[t_j = x | v_i] for QI attribute j, discrete
	// value index x (numeric: value − Min; categorical: leaf rank), SA i.
	condLog [][][]float64
	offset  []float64 // per-attribute discretization offset (numeric Min)
	card    []int

	cache map[uint64]int
}

// BuildNaiveBayes learns the classifier from a generalization-based
// release. Conditionals follow Eq. 17: Pr[t_j | v_i] is the SA-i mass of
// the ECs whose published box covers t_j, normalized by p_i·|DB|.
func BuildNaiveBayes(p *microdata.Partition) *NaiveBayes {
	t := p.Table
	m := len(t.Schema.SA.Values)
	nb := &NaiveBayes{
		schema: t.Schema,
		prior:  t.SADistribution(),
		cache:  make(map[uint64]int),
	}
	d := len(t.Schema.QI)
	nb.condLog = make([][][]float64, d)
	nb.offset = make([]float64, d)
	nb.card = make([]int, d)
	published := p.Publish()
	total := float64(t.Len())

	for j, a := range t.Schema.QI {
		card := a.Cardinality()
		nb.card[j] = card
		nb.offset[j], _ = a.Bounds()
		// Difference array of per-SA mass vectors over the attribute's
		// discrete positions: each EC adds its SA counts to every
		// position its published box covers.
		diff := make([][]float64, card+1)
		for x := range diff {
			diff[x] = make([]float64, m)
		}
		for _, ec := range published {
			lo := int(ec.Box.Lo[j] - nb.offset[j])
			hi := int(ec.Box.Hi[j] - nb.offset[j])
			if lo < 0 {
				lo = 0
			}
			if hi > card-1 {
				hi = card - 1
			}
			for i, c := range ec.SACounts {
				if c != 0 {
					diff[lo][i] += float64(c)
					diff[hi+1][i] -= float64(c)
				}
			}
		}
		nb.condLog[j] = make([][]float64, card)
		run := make([]float64, m)
		for x := 0; x < card; x++ {
			for i := 0; i < m; i++ {
				run[i] += diff[x][i]
			}
			logs := make([]float64, m)
			for i := 0; i < m; i++ {
				den := nb.prior[i] * total
				if den == 0 || run[i] <= 0 {
					logs[i] = math.Inf(-1)
				} else {
					logs[i] = math.Log(run[i] / den)
				}
			}
			nb.condLog[j][x] = logs
		}
	}
	return nb
}

// Predict returns the SA index Eq. 15 assigns to the tuple's QI values.
// Predictions for repeated QI combinations are cached.
func (nb *NaiveBayes) Predict(tp microdata.Tuple) int {
	key := uint64(0)
	ok := true
	for j, v := range tp.QI {
		x := int(v - nb.offset[j])
		if x < 0 || x >= nb.card[j] {
			ok = false
			break
		}
		key = key*uint64(nb.card[j]+1) + uint64(x)
	}
	if ok {
		if v, hit := nb.cache[key]; hit {
			return v
		}
	}
	best, bestScore := 0, math.Inf(-1)
	for i := range nb.prior {
		if nb.prior[i] == 0 {
			continue
		}
		score := math.Log(nb.prior[i])
		for j, v := range tp.QI {
			x := int(v - nb.offset[j])
			if x < 0 {
				x = 0
			}
			if x >= nb.card[j] {
				x = nb.card[j] - 1
			}
			score += nb.condLog[j][x][i]
			if math.IsInf(score, -1) {
				break
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if math.IsInf(bestScore, -1) {
		// No candidate has support: fall back to the modal SA value.
		for i, p := range nb.prior {
			if p > nb.prior[best] {
				best = i
			}
		}
	}
	if ok {
		nb.cache[key] = best
	}
	return best
}

// Accuracy returns the fraction of the original table's tuples whose SA
// value the classifier predicts correctly — the y-axis of the §7 figure.
func (nb *NaiveBayes) Accuracy(t *microdata.Table) float64 {
	if t.Len() == 0 {
		return 0
	}
	hits := 0
	for _, tp := range t.Tuples {
		if nb.Predict(tp) == tp.SA {
			hits++
		}
	}
	return float64(hits) / float64(t.Len())
}

// MaxPosterior returns, per SA value, the maximum in-EC frequency across
// the partition: the adversary's best posterior confidence for each value
// after locating a victim's EC. Dividing by the overall frequency exhibits
// the skewness attack (§2) on models that do not bound per-value gain.
func MaxPosterior(p *microdata.Partition) []float64 {
	m := len(p.Table.Schema.SA.Values)
	out := make([]float64, m)
	for i := range p.ECs {
		q := p.ECs[i].SADistribution(p.Table)
		for v, qv := range q {
			if qv > out[v] {
				out[v] = qv
			}
		}
	}
	return out
}
