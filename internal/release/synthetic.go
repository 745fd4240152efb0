package release

import (
	"math/rand"

	"repro/anon"
	"repro/internal/microdata"
)

// SyntheticECs fabricates n published ECs with small random boxes over
// the schema's QI domain — the shape a BUREL release of a large table
// takes. It is shared scaffolding for the index/engine/server benchmarks,
// the fuzz corpus, and demo releases planted through Store.Register, so
// every consumer measures the same workload shape without paying for an
// anonymization run.
func SyntheticECs(schema *microdata.Schema, n int, rng *rand.Rand) []microdata.PublishedEC {
	m := len(schema.SA.Values)
	ecs := make([]microdata.PublishedEC, n)
	for i := range ecs {
		lo := make([]float64, len(schema.QI))
		hi := make([]float64, len(schema.QI))
		for d, a := range schema.QI {
			dlo, dhi := a.Bounds()
			w := (dhi - dlo) * (0.01 + 0.05*rng.Float64())
			c := dlo + rng.Float64()*(dhi-dlo-w)
			lo[d], hi[d] = c, c+w
		}
		counts := make([]int, m)
		size := 0
		for k := 0; k < 4+rng.Intn(8); k++ {
			counts[rng.Intn(m)]++
			size++
		}
		ecs[i] = microdata.PublishedEC{Box: microdata.Box{Lo: lo, Hi: hi}, SACounts: counts, Size: size}
	}
	return ecs
}

// SyntheticSnapshot wraps SyntheticECs into a ready-to-Register
// generalized snapshot with its grid index built.
func SyntheticSnapshot(schema *microdata.Schema, n int, rng *rand.Rand) *Snapshot {
	ecs := SyntheticECs(schema, n, rng)
	rows := 0
	for i := range ecs {
		rows += ecs[i].Size
	}
	snap, err := NewSnapshot(&anon.Release{Method: anon.MethodBUREL, Schema: schema, Rows: rows, ECs: ecs}, 0)
	if err != nil {
		panic(err) // unreachable: synthetic ECs always fit the columns
	}
	return snap
}
