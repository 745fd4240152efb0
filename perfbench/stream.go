package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/microdata"
	"repro/internal/query"
	"repro/pkg/api"
)

// The paper's query shape (§6.2): λ = 3 predicates at overall
// selectivity θ = 0.1.
const (
	lambda = 3
	theta  = 0.1
)

var aggregates = []string{"count", "sum", "avg", "min", "max"}

// queryGen draws the benchmark's query mix: the paper's λ/θ queries with
// the aggregate drawn from count/sum/avg/min/max, and 1 query in 8 a
// GROUP BY — a SUM grouped over a QI dimension that carries no predicate,
// expanding to 2–16 cells.
type queryGen struct {
	schema *microdata.Schema
	gen    *query.Generator
	rng    *rand.Rand
}

func newQueryGen(schema *microdata.Schema, seed int64) *queryGen {
	rng := rand.New(rand.NewSource(seed))
	gen, err := query.NewGenerator(schema, min(lambda, len(schema.QI)), theta, rng)
	if err != nil {
		panic(err) // λ and θ are constants within the generator's range
	}
	return &queryGen{schema: schema, gen: gen, rng: rng}
}

func (g *queryGen) next() query.Query {
	q := g.gen.Next()
	if g.rng.Intn(8) != 0 || len(q.Dims) == len(g.schema.QI) {
		q.Agg = query.Aggregate(aggregates[g.rng.Intn(len(aggregates))])
		return q
	}
	var free []int
	for d := range g.schema.QI {
		if !slices.Contains(q.Dims, d) {
			free = append(free, d)
		}
	}
	d := free[g.rng.Intn(len(free))]
	maxCells := 16
	if a := g.schema.QI[d]; a.Kind == microdata.Categorical {
		maxCells = min(maxCells, a.Hierarchy.NumLeaves())
	}
	q.Agg = query.AggSum
	q.GroupBy = []int{d}
	q.GroupBuckets = []int{2 + g.rng.Intn(maxCells-1)}
	return q
}

// units returns the scalar estimations a query costs the engine: itself,
// or its GROUP BY cells.
func units(schema *microdata.Schema, q query.Query) []query.Query {
	if len(q.GroupBy) == 0 {
		return []query.Query{q}
	}
	cells := query.GroupCells(schema, q)
	out := make([]query.Query, len(cells))
	for i, c := range cells {
		out[i] = c.Query
	}
	return out
}

// unitKey hashes a unit the way the engine's result cache keys it: SA
// range, aggregate (both COUNT spellings alike) and the predicates sorted
// by dimension, bounds compared bit for bit.
func unitKey(q query.Query) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(q.SALo))
	put(uint64(q.SAHi))
	if !q.Agg.IsCount() {
		h.Write([]byte(q.Agg))
	}
	ord := make([]int, len(q.Dims))
	for i := range ord {
		ord[i] = i
	}
	slices.SortFunc(ord, func(a, b int) int { return q.Dims[a] - q.Dims[b] })
	for _, i := range ord {
		put(uint64(q.Dims[i]))
		put(bits(q.Lo[i]))
		put(bits(q.Hi[i]))
	}
	return h.Sum64()
}

// bits is a bound's bit pattern with -0 folded into +0.
func bits(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

func toAPI(q query.Query) api.Query {
	return api.Query{Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi,
		Agg: string(q.Agg), GroupBy: q.GroupBy, GroupBuckets: q.GroupBuckets}
}

func fromAPI(q api.Query) query.Query {
	return query.Query{Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi,
		Agg: query.Aggregate(q.Agg), GroupBy: q.GroupBy, GroupBuckets: q.GroupBuckets}
}

// batchSource hands the closed-loop clients their next batch. Batch i
// has the same content for a given seed whichever client draws it.
type batchSource interface {
	next() (index int, qs []api.Query)
}

// freshStream is the ad-hoc analysis stream: batches of queries no unit
// of which the run has sent before, so no engine cache can hit. Only
// queries whose predicates are all on categorical dimensions can repeat
// — a numeric bound is a random float — so those are left out, which
// keeps the mix the same however far a run draws; any exact repeat that
// remains is dropped, not resent.
type freshStream struct {
	mu      sync.Mutex
	gen     *queryGen
	size    int
	seen    map[uint64]struct{}
	batches int
	drawn   int // queries the generator drew
	skipped int // left out for having only categorical predicates
	dropped int // exact repeats dropped
}

func newFreshStream(schema *microdata.Schema, seed int64, size int) *freshStream {
	return &freshStream{gen: newQueryGen(schema, seed), size: size, seen: map[uint64]struct{}{}}
}

func (s *freshStream) next() (int, []api.Query) {
	s.mu.Lock()
	defer s.mu.Unlock()
	qs := make([]api.Query, 0, s.size)
	for len(qs) < s.size {
		q := s.gen.next()
		s.drawn++
		if !hasNumeric(s.gen.schema, q.Dims) {
			s.skipped++
			continue
		}
		us := units(s.gen.schema, q)
		keys := make([]uint64, len(us))
		repeat := false
		for i, u := range us {
			keys[i] = unitKey(u)
			if _, ok := s.seen[keys[i]]; ok {
				repeat = true
				break
			}
		}
		if repeat {
			s.dropped++
			continue
		}
		for _, k := range keys {
			s.seen[k] = struct{}{}
		}
		qs = append(qs, toAPI(q))
	}
	i := s.batches
	s.batches++
	return i, qs
}

func hasNumeric(schema *microdata.Schema, dims []int) bool {
	for _, d := range dims {
		if schema.QI[d].Kind == microdata.Numeric {
			return true
		}
	}
	return false
}

// poolStream is the dashboard stream: batches drawn Zipf(1.2) from a
// fixed pool of distinct queries small enough for every engine cache.
type poolStream struct {
	mu      sync.Mutex
	pool    []api.Query
	zipf    *rand.Zipf
	size    int
	batches int
}

func newPoolStream(schema *microdata.Schema, seed int64, poolSize, size int) *poolStream {
	fresh := newFreshStream(schema, seed, poolSize)
	_, pool := fresh.next()
	rng := rand.New(rand.NewSource(seed + 1))
	return &poolStream{pool: pool, zipf: rand.NewZipf(rng, 1.2, 1, uint64(poolSize-1)), size: size}
}

func (s *poolStream) next() (int, []api.Query) {
	s.mu.Lock()
	defer s.mu.Unlock()
	qs := make([]api.Query, s.size)
	for i := range qs {
		qs[i] = s.pool[s.zipf.Uint64()]
	}
	i := s.batches
	s.batches++
	return i, qs
}
