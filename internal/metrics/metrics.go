// Package metrics bundles the evaluation measurements the paper reports for
// a generalization-based release: average information loss (Eq. 5), the
// privacy levels the release actually achieves under β-likeness,
// t-closeness, and ℓ-diversity, and basic partition statistics. It is the
// shared currency of the evaluation job (internal/eval) and the CLIs.
package metrics

import (
	"fmt"
	"time"

	"repro/internal/likeness"
	"repro/internal/microdata"
)

// Evaluation summarizes one anonymized release.
type Evaluation struct {
	Algorithm string
	NumECs    int
	MinECSize int
	AIL       float64

	// AchievedBeta is the maximum positive relative frequency gain of any
	// SA value in any EC ("Real β" on Fig. 4's y-axes).
	AchievedBeta float64
	// MaxT and AvgT are the maximum and average EMD between EC and
	// overall SA distributions (t and Avg t in the §7 table).
	MaxT, AvgT float64
	// MinL and AvgL are the minimum and average numbers of distinct SA
	// values per EC (ℓ and Avg ℓ in the §7 table).
	MinL int
	AvgL float64

	Elapsed time.Duration
}

// Evaluate measures a partition under the given EMD metric.
func Evaluate(algorithm string, p *microdata.Partition, metric likeness.TMetric, elapsed time.Duration) Evaluation {
	ev := Evaluation{
		Algorithm:    algorithm,
		NumECs:       len(p.ECs),
		MinECSize:    p.MinECSize(),
		AIL:          p.AIL(),
		AchievedBeta: likeness.AchievedBeta(p),
		Elapsed:      elapsed,
	}
	ev.MaxT, ev.AvgT = likeness.AchievedT(p, metric)
	ev.MinL, ev.AvgL = likeness.AchievedL(p)
	return ev
}

// String renders a one-line summary.
func (e Evaluation) String() string {
	return fmt.Sprintf("%s: ECs=%d minEC=%d AIL=%.4f realβ=%.3f t=%.4f avg_t=%.4f ℓ=%d avg_ℓ=%.1f time=%v",
		e.Algorithm, e.NumECs, e.MinECSize, e.AIL, e.AchievedBeta, e.MaxT, e.AvgT, e.MinL, e.AvgL,
		e.Elapsed.Round(time.Millisecond))
}
