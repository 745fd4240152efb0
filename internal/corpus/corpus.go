// Package corpus provides the deterministic benchmark tables the
// evaluation tooling sweeps: small, named datasets with the SA-skew
// shapes the paper's experiments exercise. Every table is a pure
// function of (name, n, seed), so trade-off curves generated from the
// corpus are reproducible byte for byte — the property the CI regression
// gate rests on.
package corpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/census"
	"repro/internal/microdata"
)

// Dataset names.
const (
	// Census is the paper's CEN table (Table 3 schema) at 3 QI
	// attributes and 50 salary classes with the §6 frequency extremes.
	Census = "census"
	// Salary is the same generator at 2 QI attributes — the lower-
	// dimensional salary workload, where ECs are cheap and utility is
	// dominated by the SA constraint rather than QI sparsity.
	Salary = "salary"
	// Healthcare is a hospital-style table: 2 QI attributes and a
	// 7-value diagnosis SA with one rare, QI-correlated value (HIV
	// concentrated in ages 25–45) — the local-skew shape β-likeness is
	// designed to bound and ℓ-diversity is not.
	Healthcare = "healthcare"
)

// Datasets lists the corpus names, stable order.
func Datasets() []string { return []string{Census, Healthcare, Salary} }

// Rows is the row count of a corpus table asked for n rows: n, or 5000
// when n ≤ 0.
func Rows(n int) int {
	if n <= 0 {
		return 5000
	}
	return n
}

// Generate builds a corpus table of Rows(n) rows.
func Generate(name string, n int, seed int64) (*microdata.Table, error) {
	n = Rows(n)
	switch strings.ToLower(name) {
	case Census:
		return census.Generate(census.Options{N: n, Seed: seed}).Project(3), nil
	case Salary:
		return census.Generate(census.Options{N: n, Seed: seed}).Project(2), nil
	case Healthcare:
		return healthcare(n, seed), nil
	}
	return nil, fmt.Errorf("corpus: unknown dataset %q (have %s)", name, strings.Join(Datasets(), ", "))
}

// healthcare generates the hospital table: uniform ages and regions, a
// skewed diagnosis distribution, and the rare value correlated with a
// narrow age band so group-level SA skew is locally concentrated.
func healthcare(n int, seed int64) *microdata.Table {
	rng := rand.New(rand.NewSource(seed))
	schema := &microdata.Schema{
		QI: []microdata.Attribute{
			microdata.NumericAttr("Age", 18, 90),
			microdata.NumericAttr("Region", 0, 99),
		},
		SA: microdata.SensitiveAttr{Name: "Disease", Values: []string{
			"HIV", "flu", "cold", "angina", "diabetes", "asthma", "migraine",
		}},
	}
	weights := []float64{0.005, 0.30, 0.28, 0.12, 0.12, 0.10, 0.075}
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		sum += w
		cum[i] = sum
	}
	t := microdata.NewTable(schema)
	for i := 0; i < n; i++ {
		age := 18 + rng.Float64()*72
		region := float64(rng.Intn(100))
		u := rng.Float64() * sum
		sa := sort.SearchFloat64s(cum, u)
		if sa >= len(weights) {
			sa = len(weights) - 1
		}
		if sa == 0 { // the rare diagnosis clusters in a narrow age band
			age = 25 + rng.Float64()*20
		}
		t.MustAppend(microdata.Tuple{QI: []float64{float64(int(age)), region}, SA: sa})
	}
	return t
}
