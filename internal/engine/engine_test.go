package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/internal/release"
)

// syntheticSnapshot plants a ready generalized release of n small-box
// ECs over the 3-QI census schema (release.SyntheticECs' shape).
func syntheticSnapshot(n int, seed int64) (*release.Snapshot, *microdata.Schema) {
	schema := census.Schema().Project(3)
	return release.SyntheticSnapshot(schema, n, rand.New(rand.NewSource(seed))), schema
}

func genQueries(t *testing.T, schema *microdata.Schema, n int, seed int64) []query.Query {
	t.Helper()
	gen, err := query.NewGenerator(schema, 2, 0.05, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]query.Query, n)
	for i := range qs {
		qs[i] = gen.Next()
	}
	return qs
}

// TestExecuteMatchesDirect: batch results must land in order and agree
// exactly with per-query Snapshot.Estimate.
func TestExecuteMatchesDirect(t *testing.T) {
	snap, schema := syntheticSnapshot(2000, 1)
	e := New(Options{Workers: 4})
	defer e.Close()
	qs := genQueries(t, schema, 100, 2)
	res, err := e.Execute(context.Background(), "r-000001", snap, qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(res), len(qs))
	}
	for i, q := range qs {
		want, err := snap.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Estimate != want {
			t.Fatalf("query %d: engine %v, direct %v", i, res[i].Estimate, want)
		}
	}
}

// TestCacheHitsOnRepeat: a second identical batch must be answered fully
// from the cache, and the counters must say so.
func TestCacheHitsOnRepeat(t *testing.T) {
	snap, schema := syntheticSnapshot(500, 3)
	e := New(Options{Workers: 2})
	defer e.Close()
	qs := genQueries(t, schema, 32, 4)
	first, err := e.Execute(context.Background(), "r-000001", snap, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i].Cached {
			t.Fatalf("query %d cached on a cold cache", i)
		}
	}
	second, err := e.Execute(context.Background(), "r-000001", snap, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("query %d not cached on repeat", i)
		}
		if second[i].Estimate != first[i].Estimate {
			t.Fatalf("query %d: cached %v != computed %v", i, second[i].Estimate, first[i].Estimate)
		}
	}
	st := e.Stats()
	if st.CacheHits != 32 || st.CacheMisses != 32 {
		t.Fatalf("stats hits=%d misses=%d, want 32/32", st.CacheHits, st.CacheMisses)
	}
	if st.Batches != 2 || st.Queries != 64 || st.MaxBatch != 32 {
		t.Fatalf("stats batches=%d queries=%d max=%d", st.Batches, st.Queries, st.MaxBatch)
	}
}

// TestBatchLocalDedup: N copies of one query in a single cold batch must
// trigger exactly one estimation; the copies report Cached.
func TestBatchLocalDedup(t *testing.T) {
	snap, schema := syntheticSnapshot(500, 5)
	e := New(Options{Workers: 2})
	defer e.Close()
	q := genQueries(t, schema, 1, 6)[0]
	qs := make([]query.Query, 16)
	for i := range qs {
		qs[i] = q
	}
	res, err := e.Execute(context.Background(), "r-000001", snap, qs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := snap.Estimate(q)
	for i := range res {
		if res[i].Estimate != want {
			t.Fatalf("query %d: %v want %v", i, res[i].Estimate, want)
		}
		if (i == 0) == res[i].Cached {
			t.Fatalf("query %d: Cached=%v", i, res[i].Cached)
		}
	}
	if st := e.Stats(); st.CacheMisses != 1 || st.CacheHits != 15 {
		t.Fatalf("stats hits=%d misses=%d, want 15/1", st.CacheHits, st.CacheMisses)
	}
}

// TestSignatureCanonicalization: the same predicates listed in a
// different dimension order must share one cache entry.
func TestSignatureCanonicalization(t *testing.T) {
	snap, _ := syntheticSnapshot(500, 7)
	e := New(Options{Workers: 1})
	defer e.Close()
	a := query.Query{Dims: []int{0, 2}, Lo: []float64{20, 1}, Hi: []float64{40, 8}, SALo: 0, SAHi: 9}
	b := query.Query{Dims: []int{2, 0}, Lo: []float64{1, 20}, Hi: []float64{8, 40}, SALo: 0, SAHi: 9}
	if _, err := e.Execute(context.Background(), "r-000001", snap, []query.Query{a}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), "r-000001", snap, []query.Query{b})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Cached {
		t.Fatal("permuted predicate order missed the cache")
	}
}

// TestSignatureNegativeZero: a bound of -0.0 selects exactly the same
// tuples as +0.0, so the two spellings must share one cache entry —
// math.Float64bits alone would key them apart.
func TestSignatureNegativeZero(t *testing.T) {
	snap, _ := syntheticSnapshot(500, 17)
	e := New(Options{Workers: 1})
	defer e.Close()
	a := query.Query{Dims: []int{0}, Lo: []float64{0}, Hi: []float64{40}, SALo: 0, SAHi: 9}
	b := query.Query{Dims: []int{0}, Lo: []float64{math.Copysign(0, -1)}, Hi: []float64{40}, SALo: 0, SAHi: 9}
	ra, err := e.Execute(context.Background(), "r-000001", snap, []query.Query{a})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Execute(context.Background(), "r-000001", snap, []query.Query{b})
	if err != nil {
		t.Fatal(err)
	}
	if !rb[0].Cached {
		t.Fatal("-0.0 bound missed the +0.0 cache entry")
	}
	if rb[0].Estimate != ra[0].Estimate {
		t.Fatalf("-0.0 bound: %v, +0.0 bound: %v", rb[0].Estimate, ra[0].Estimate)
	}
	if st := e.Stats(); st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

// TestGroupByExecute: a grouped query's cells must match per-cell direct
// estimation, carry the GroupCells key ranges, leave the scalar Estimate
// zero, and be fully cached on repeat.
func TestGroupByExecute(t *testing.T) {
	snap, schema := syntheticSnapshot(1000, 18)
	e := New(Options{Workers: 2})
	defer e.Close()
	q := query.Query{
		Dims: []int{0}, Lo: []float64{20}, Hi: []float64{60},
		SALo: 0, SAHi: 9, Agg: query.AggSum,
		GroupBy: []int{1, 2}, GroupBuckets: []int{0, 4}, // 2 Gender leaves × 4 Education buckets
	}
	cells := query.GroupCells(schema, q)
	if len(cells) != 8 {
		t.Fatalf("expanded to %d cells, want 8", len(cells))
	}
	res, err := e.Execute(context.Background(), "r-000001", snap, []query.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Estimate != 0 {
		t.Fatalf("grouped query set scalar Estimate %v", res[0].Estimate)
	}
	if res[0].Cached {
		t.Fatal("grouped query cached on a cold cache")
	}
	if len(res[0].Groups) != len(cells) {
		t.Fatalf("got %d groups, want %d", len(res[0].Groups), len(cells))
	}
	for ci, c := range cells {
		g := res[0].Groups[ci]
		for d := range c.Lo {
			if g.Lo[d] != c.Lo[d] || g.Hi[d] != c.Hi[d] {
				t.Fatalf("cell %d dim %d: key [%v,%v] want [%v,%v]", ci, d, g.Lo[d], g.Hi[d], c.Lo[d], c.Hi[d])
			}
		}
		want, err := snap.Estimate(c.Query)
		if err != nil {
			t.Fatal(err)
		}
		if g.Estimate != want {
			t.Fatalf("cell %d: engine %v, direct %v", ci, g.Estimate, want)
		}
	}
	again, err := e.Execute(context.Background(), "r-000001", snap, []query.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if !again[0].Cached {
		t.Fatal("repeated grouped query not fully cached")
	}
	for ci := range cells {
		if again[0].Groups[ci].Estimate != res[0].Groups[ci].Estimate {
			t.Fatalf("cell %d: cached %v != computed %v", ci, again[0].Groups[ci].Estimate, res[0].Groups[ci].Estimate)
		}
	}
}

// TestGroupByCSE: a batch repeating a grouped query, plus an ungrouped
// query equal to one of its cells, must estimate each distinct cell
// exactly once.
func TestGroupByCSE(t *testing.T) {
	snap, schema := syntheticSnapshot(500, 19)
	e := New(Options{Workers: 2})
	defer e.Close()
	q := query.Query{
		Dims: []int{0}, Lo: []float64{25}, Hi: []float64{70},
		SALo: 0, SAHi: 9, Agg: query.AggAvg,
		GroupBy: []int{2}, GroupBuckets: []int{4},
	}
	cells := query.GroupCells(schema, q)
	res, err := e.Execute(context.Background(), "r-000001", snap, []query.Query{q, q, cells[0].Query})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Cached {
		t.Fatal("first grouped query reported cached on a cold cache")
	}
	if !res[1].Cached {
		t.Fatal("duplicate grouped query not served batch-locally")
	}
	if !res[2].Cached {
		t.Fatal("ungrouped twin of a group cell not served batch-locally")
	}
	if res[2].Estimate != res[0].Groups[0].Estimate {
		t.Fatalf("cell twin: %v, group cell: %v", res[2].Estimate, res[0].Groups[0].Estimate)
	}
	n := uint64(len(cells))
	if st := e.Stats(); st.CacheMisses != n || st.CacheHits != n+1 {
		t.Fatalf("stats hits=%d misses=%d, want %d/%d", st.CacheHits, st.CacheMisses, n+1, n)
	}
}

// TestMaxUnitsGuard: a batch whose GROUP BY expansion exceeds maxUnits
// must fail with ErrBatchTooLarge even though the batch length is fine.
func TestMaxUnitsGuard(t *testing.T) {
	snap, _ := syntheticSnapshot(100, 20)
	e := New(Options{Workers: 1})
	defer e.Close()
	// Nine 32×32-cell GROUP BY queries expand to 9,216 units > 8,192.
	q := query.Query{SALo: 0, SAHi: 9, GroupBy: []int{0, 2}, GroupBuckets: []int{32, 32}}
	qs := []query.Query{q, q, q, q, q, q, q, q, q}
	if _, err := e.Execute(context.Background(), "r-000001", snap, qs); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized expansion: %v", err)
	}
}

// TestNoCrossReleaseHits: the same query against a different release ID
// must not reuse the other release's entry.
func TestNoCrossReleaseHits(t *testing.T) {
	snapA, schema := syntheticSnapshot(500, 8)
	snapB, _ := syntheticSnapshot(500, 9) // different content, same schema
	e := New(Options{Workers: 2})
	defer e.Close()
	qs := genQueries(t, schema, 16, 10)
	ra, err := e.Execute(context.Background(), "r-000001", snapA, qs)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e.Execute(context.Background(), "r-000002", snapB, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if rb[i].Cached {
			t.Fatalf("query %d: release B served from release A's cache", i)
		}
		wantA, _ := snapA.Estimate(qs[i])
		wantB, _ := snapB.Estimate(qs[i])
		if ra[i].Estimate != wantA || rb[i].Estimate != wantB {
			t.Fatalf("query %d: got (%v,%v) want (%v,%v)", i, ra[i].Estimate, rb[i].Estimate, wantA, wantB)
		}
	}
}

// TestErrors: oversized batches, invalid queries (with index), and closed
// engines must fail with their sentinel errors.
func TestErrors(t *testing.T) {
	snap, schema := syntheticSnapshot(100, 11)
	e := New(Options{Workers: 1, MaxBatch: 4})
	qs := genQueries(t, schema, 5, 12)
	if _, err := e.Execute(context.Background(), "r-000001", snap, qs); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v", err)
	}
	bad := []query.Query{qs[0], {Dims: []int{99}, Lo: []float64{0}, Hi: []float64{1}}}
	_, err := e.Execute(context.Background(), "r-000001", snap, bad)
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Index != 1 {
		t.Fatalf("invalid query: %v", err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Execute(context.Background(), "r-000001", snap, qs[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed engine: %v", err)
	}
}

// TestExecuteCancelled: a batch whose context is done returns the
// context's error and estimates no unit it had not yet sent — before the
// first unit, on the inline single-miss path, and while blocked sending
// to a saturated pool — and the engine then serves the next batch.
func TestExecuteCancelled(t *testing.T) {
	snap, schema := syntheticSnapshot(10000, 31)
	e := New(Options{Workers: 1, MaxBatch: 2000})
	defer e.Close()
	qs := genQueries(t, schema, 2000, 32)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, batch := range [][]query.Query{qs[:1], qs[:64]} {
		if _, err := e.Execute(ctx, "r-000001", snap, batch); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d-query batch under a cancelled context: %v", len(batch), err)
		}
	}
	if n := e.hEstimate.Count(); n != 0 {
		t.Fatalf("batches cancelled before they started estimated %d units", n)
	}

	// One worker and 2,000 distinct units of ~10k ECs each: the batch
	// fills the job queue at once and then blocks sending to it.
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Execute(ctx, "r-000001", snap, qs)
		done <- err
	}()
	for e.QueueDepth() < cap(e.jobs) {
		select {
		case err := <-done:
			t.Fatalf("batch ended (%v) before it filled the job queue", err)
		default:
			runtime.Gosched()
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("batch cancelled while blocked: %v", err)
	}
	ran := e.hEstimate.Count()
	if ran >= uint64(len(qs)) {
		t.Fatalf("cancelled batch estimated all %d units", ran)
	}
	if d := e.QueueDepth(); d != 0 {
		t.Fatalf("%d jobs of the cancelled batch still queued after it returned", d)
	}
	if st := e.Stats(); st.Batches != 0 || st.CacheEntries != 0 {
		t.Fatalf("cancelled batches counted %d batches and cached %d results", st.Batches, st.CacheEntries)
	}

	// The next batch is served in full, and estimates its own 64 units
	// and nothing the cancelled batch left behind: the one worker takes
	// jobs in order, so a leftover would run before these finish.
	res, err := e.Execute(context.Background(), "r-000001", snap, qs[:64])
	if err != nil {
		t.Fatalf("batch after cancellations: %v", err)
	}
	if n := e.hEstimate.Count(); n != ran+64 {
		t.Fatalf("next batch of 64 units brought the estimate count from %d to %d", ran, n)
	}
	for i, q := range qs[:64] {
		if want, _ := snap.Estimate(q); res[i].Estimate != want || res[i].Cached {
			t.Fatalf("query %d after cancellations: %v (cached %v), want %v", i, res[i].Estimate, res[i].Cached, want)
		}
	}
}

// TestCacheDisabled: negative capacity turns caching off without
// affecting results.
func TestCacheDisabled(t *testing.T) {
	snap, schema := syntheticSnapshot(500, 13)
	e := New(Options{Workers: 2, CacheCapacity: -1})
	defer e.Close()
	qs := genQueries(t, schema, 8, 14)
	for round := 0; round < 2; round++ {
		res, err := e.Execute(context.Background(), "r-000001", snap, qs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Cached {
				t.Fatalf("round %d query %d cached with cache disabled", round, i)
			}
			want, _ := snap.Estimate(qs[i])
			if res[i].Estimate != want {
				t.Fatalf("round %d query %d: %v want %v", round, i, res[i].Estimate, want)
			}
		}
	}
	if st := e.Stats(); st.CacheEntries != 0 || st.CacheHits != 0 {
		t.Fatalf("disabled cache recorded entries=%d hits=%d", st.CacheEntries, st.CacheHits)
	}
}

// TestCacheEviction: a capacity far below the workload keeps the entry
// count bounded and the answers correct.
func TestCacheEviction(t *testing.T) {
	snap, schema := syntheticSnapshot(500, 15)
	e := New(Options{Workers: 2, CacheCapacity: 32})
	defer e.Close()
	qs := genQueries(t, schema, 200, 16)
	if _, err := e.Execute(context.Background(), "r-000001", snap, qs[:100]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), "r-000001", snap, qs[100:]); err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().CacheEntries; n > 32+4 { // per-shard rounding slack
		t.Fatalf("cache holds %d entries, capacity 32", n)
	}
	res, err := e.Execute(context.Background(), "r-000001", snap, qs[190:])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		want, _ := snap.Estimate(qs[190+i])
		if math.Abs(r.Estimate-want) != 0 {
			t.Fatalf("post-eviction query %d: %v want %v", i, r.Estimate, want)
		}
	}
}

// TestPermutedTwinColdMatchesCached: listing a query's predicates in
// another order keys the same cache entry, so a warm engine serves the
// twin the original's bits. A cold engine (a replica that has not seen
// the original) must estimate the twin to those same bits, or an answer
// would depend on which spelling the serving replica cached first.
func TestPermutedTwinColdMatchesCached(t *testing.T) {
	schema := census.Schema()
	snap := release.SyntheticSnapshot(schema, 20000, rand.New(rand.NewSource(1)))
	gen, err := query.NewGenerator(schema, 3, 0.1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	qs, twins := make([]query.Query, 250), make([]query.Query, 250)
	for i := range qs {
		qs[i] = gen.Next()
		twins[i] = qs[i]
		twins[i].Dims, twins[i].Lo, twins[i].Hi = nil, nil, nil
		for _, j := range perms[i%len(perms)] {
			twins[i].Dims = append(twins[i].Dims, qs[i].Dims[j])
			twins[i].Lo = append(twins[i].Lo, qs[i].Lo[j])
			twins[i].Hi = append(twins[i].Hi, qs[i].Hi[j])
		}
	}
	ctx := context.Background()
	warm := New(Options{Workers: 2})
	defer warm.Close()
	if _, err := warm.Execute(ctx, "r-000001", snap, qs); err != nil {
		t.Fatal(err)
	}
	served, err := warm.Execute(ctx, "r-000001", snap, twins)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(Options{Workers: 2})
	defer cold.Close()
	fresh, err := cold.Execute(ctx, "r-000001", snap, twins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range twins {
		if !served[i].Cached {
			t.Fatalf("twin %d (dims %v) missed the cache entry of %v", i, twins[i].Dims, qs[i].Dims)
		}
		if math.Float64bits(fresh[i].Estimate) != math.Float64bits(served[i].Estimate) {
			t.Fatalf("twin %d (dims %v): cold %v, cached %v", i, twins[i].Dims, fresh[i].Estimate, served[i].Estimate)
		}
	}
}
