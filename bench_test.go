package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/burel"
	"repro/internal/census"
	"repro/internal/dist"
	"repro/internal/hilbert"
	"repro/internal/likeness"
	"repro/internal/metrics"
	"repro/internal/microdata"
	"repro/internal/mondrian"
	"repro/internal/perturb"
	"repro/internal/query"
	"repro/internal/sabre"
)

// ---- Component benchmarks: the individual algorithms at 100K scale ----

func benchTable(b *testing.B, n int) *census.Options {
	b.Helper()
	return &census.Options{N: n, Seed: 42}
}

// BenchmarkGeneralize times BUREL, LMondrian and DMondrian along the
// axes of Figs. 5–7, whose time sub-figures it keeps: β 1–5 at QI 3,
// QI 1–5 at β 4, and 20k–100k rows at β 4, sampled from one 100K-row
// CENSUS table. Each scheme's model is built outside the timed loop.
func BenchmarkGeneralize(b *testing.B) {
	base := census.Generate(*benchTable(b, 100000))
	type instance struct {
		name     string
		qi, rows int
		beta     float64
	}
	var instances []instance
	for i := 1; i <= 5; i++ {
		instances = append(instances, instance{fmt.Sprintf("beta=%d", i), 3, 100000, float64(i)})
	}
	for i := 1; i <= 5; i++ {
		instances = append(instances, instance{fmt.Sprintf("qi=%d", i), i, 100000, 4})
	}
	for i := 1; i <= 5; i++ {
		instances = append(instances, instance{fmt.Sprintf("rows=%d", 20000*i), 3, 20000 * i, 4})
	}
	schemes := []struct {
		name string
		// prepare returns the timed run over t at β.
		prepare func(t *microdata.Table, beta float64) (func() error, error)
	}{
		{"BUREL", func(t *microdata.Table, beta float64) (func() error, error) {
			return func() error {
				_, err := burel.Anonymize(t, burel.Options{Beta: beta, Seed: 1})
				return err
			}, nil
		}},
		{"LMondrian", func(t *microdata.Table, beta float64) (func() error, error) {
			model, err := likeness.NewModel(beta, t)
			if err != nil {
				return nil, err
			}
			return func() error { mondrian.Anonymize(t, mondrian.BetaLikeness{Model: model}); return nil }, nil
		}},
		{"DMondrian", func(t *microdata.Table, beta float64) (func() error, error) {
			overall := dist.Distribution(t.SADistribution())
			dd := &likeness.DeltaDisclosure{Delta: likeness.DeltaForBeta(beta, overall), P: overall}
			return func() error { mondrian.Anonymize(t, mondrian.DeltaDisclosure{Model: dd}); return nil }, nil
		}},
	}
	for _, s := range schemes {
		for _, in := range instances {
			b.Run(s.name+"/"+in.name, func(b *testing.B) {
				t := base.Sample(in.rows, rand.New(rand.NewSource(7))).Project(in.qi)
				run, err := s.prepare(t, in.beta)
				if err != nil {
					b.Fatal(err)
				}
				for b.Loop() {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSABRE100K(b *testing.B) {
	t := census.Generate(*benchTable(b, 100000)).Project(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sabre.Anonymize(t, sabre.Options{T: 0.15, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerturb100K(b *testing.B) {
	t := census.Generate(*benchTable(b, 100000)).Project(3)
	scheme, err := perturb.NewScheme(t, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheme.Perturb(t, rng)
	}
}

func BenchmarkReconstruct(b *testing.B) {
	t := census.Generate(*benchTable(b, 100000)).Project(3)
	scheme, err := perturb.NewScheme(t, 4)
	if err != nil {
		b.Fatal(err)
	}
	pert := scheme.Perturb(t, rand.New(rand.NewSource(1)))
	counts := pert.SACounts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheme.Reconstruct(counts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHilbertIndex(b *testing.B) {
	c := hilbert.MustNew(3, 10)
	m, err := hilbert.NewMapper(c, []float64{0, 0, 0}, []float64{100, 100, 100})
	if err != nil {
		b.Fatal(err)
	}
	point := []float64{17, 83, 42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Index(point)
	}
}

func BenchmarkQueryWorkload(b *testing.B) {
	t := census.Generate(*benchTable(b, 50000)).Project(3)
	res, err := burel.Anonymize(t, burel.Options{Beta: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pub := res.Partition.Publish()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen, err := query.NewGenerator(t.Schema, 2, 0.1, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := query.MedianRelativeError(t, gen, func(q query.Query) (float64, error) {
			return query.EstimateGeneralized(t.Schema, pub, q), nil
		}, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benchmarks: the design choices DESIGN.md calls out ----

// BenchmarkAblationSeedStrategies compares the default contiguous-slab
// materializer against the paper-literal random-seed retrieval; the bench
// reports AIL for both as custom metrics (slab is materially lower, see
// DESIGN.md).
func BenchmarkAblationSeedStrategies(b *testing.B) {
	t := census.Generate(*benchTable(b, 50000)).Project(3)
	model, err := likeness.NewModel(4, t)
	if err != nil {
		b.Fatal(err)
	}
	// Literal-retrieval scaffolding (bucketization shared across iters).
	fDP := func(p float64) float64 { return model.MaxFreq(p) * 0.95 }
	sp, err := burel.DPPartition(model.P, fDP)
	if err != nil {
		b.Fatal(err)
	}
	v2b := make([]int, len(model.P))
	for s := 0; s < sp.NumBuckets(); s++ {
		for _, v := range sp.Segment(s) {
			v2b[v] = s
		}
	}
	bucketRows := make([][]int, sp.NumBuckets())
	for r, tp := range t.Tuples {
		bucketRows[v2b[tp.SA]] = append(bucketRows[v2b[tp.SA]], r)
	}
	sizes := make([]int, sp.NumBuckets())
	minF := make([]float64, sp.NumBuckets())
	for s := range sizes {
		sizes[s] = len(bucketRows[s])
		minF[s] = sp.MinFreq(s)
	}
	leaves := burel.BiSplit(sizes, minF, model.MaxFreq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := burel.Anonymize(t, burel.Options{Beta: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Partition.AIL(), "AIL-slab")

		ret, err := burel.NewRetriever(t, bucketRows, 10)
		if err != nil {
			b.Fatal(err)
		}
		ecs := ret.MaterializeSeeded(leaves, rand.New(rand.NewSource(1)), burel.RandomSeed)
		lit := &microdata.Partition{Table: t, ECs: ecs}
		b.ReportMetric(lit.AIL(), "AIL-literal")
	}
}

// BenchmarkAblationMondrianRetry measures the strengthened retry-dimensions
// Mondrian against the paper's single-try variant.
func BenchmarkAblationMondrianRetry(b *testing.B) {
	t := census.Generate(*benchTable(b, 50000)).Project(3)
	model, err := likeness.NewModel(4, t)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		single := mondrian.AnonymizeOpts(t, mondrian.BetaLikeness{Model: model}, mondrian.Options{})
		retry := mondrian.AnonymizeOpts(t, mondrian.BetaLikeness{Model: model}, mondrian.Options{RetryDimensions: true})
		b.ReportMetric(single.AIL(), "AIL-single")
		b.ReportMetric(retry.AIL(), "AIL-retry")
	}
}

// BenchmarkAblationHeadroom sweeps the bucketization headroom.
func BenchmarkAblationHeadroom(b *testing.B) {
	t := census.Generate(*benchTable(b, 50000)).Project(3)
	for i := 0; i < b.N; i++ {
		for _, h := range []float64{0.01, 0.05, 0.20} {
			res, err := burel.Anonymize(t, burel.Options{Beta: 4, Seed: 1, Headroom: h})
			if err != nil {
				b.Fatal(err)
			}
			_ = res.Partition.AIL()
		}
	}
}

// BenchmarkEvaluate measures the full release-evaluation pipeline.
func BenchmarkEvaluate(b *testing.B) {
	t := census.Generate(*benchTable(b, 50000)).Project(3)
	res, err := burel.Anonymize(t, burel.Options{Beta: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Evaluate("BUREL", res.Partition, likeness.EqualEMD, 0)
	}
}
