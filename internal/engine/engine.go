// Package engine is the batch query layer between the HTTP front end and
// the release store: it executes batches of aggregation queries
// (COUNT/SUM/AVG/MIN/MAX, optionally GROUP BY) against one release by
// expanding grouped queries into their scalar cells and fanning the
// resulting units out across a fixed worker pool — each worker owns the
// reusable scratch state of the indexed estimator — and serves repeated
// units from a sharded LRU result cache keyed by (release ID, canonical
// query signature). The expansion makes GROUP BY a batch-local
// common-subexpression problem: identical cells anywhere in the batch
// are estimated once. Because release IDs name immutable versions,
// cached results can never go stale and the cache needs no invalidation
// protocol; eviction is purely capacity-driven.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/release"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrBatchTooLarge reports a batch exceeding Options.MaxBatch.
	ErrBatchTooLarge = errors.New("batch too large")
	// ErrClosed reports an Execute against a closed engine.
	ErrClosed = errors.New("engine is closed")
)

// QueryError wraps a validation failure of one query in a batch with its
// position, so the client learns which entry to fix.
type QueryError struct {
	Index int
	Err   error
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("query %d: %v", e.Index, e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// Options configures an Engine.
type Options struct {
	// Workers is the estimator pool size; ≤ 0 selects GOMAXPROCS.
	Workers int
	// CacheCapacity is the total result-cache entry budget across all
	// shards. 0 selects DefaultCacheCapacity; negative disables caching.
	CacheCapacity int
	// MaxBatch caps the queries accepted per Execute call; ≤ 0 selects
	// DefaultMaxBatch.
	MaxBatch int
}

// Defaults for Options fields left zero.
const (
	DefaultCacheCapacity = 1 << 16
	DefaultMaxBatch      = 256
)

// maxUnits caps the scalar estimations one batch may expand to after
// GROUP BY queries are unfolded into their cells. It bounds the work a
// batch of grouped queries can demand the same way MaxBatch bounds its
// length.
const maxUnits = 8192

// Result is the outcome of one query of a batch.
type Result struct {
	// Estimate is the aggregate estimate of an ungrouped query (may be
	// negative for perturbed releases; the reconstruction estimator is
	// unbiased, not non-negative). Zero for grouped queries, whose
	// estimates live in Groups.
	Estimate float64
	// Cached reports that the estimate was served from the result cache
	// (or computed once for an identical earlier query in the same
	// batch) rather than estimated for this entry. For a grouped query
	// it reports that every cell was served that way.
	Cached bool
	// Groups holds the per-cell results of a GROUP BY query, dim-major
	// in GroupBy order; nil for ungrouped queries.
	Groups []GroupResult
}

// GroupResult is one cell of a grouped query's answer: the cell's key
// range per GroupBy dimension plus its aggregate estimate.
type GroupResult struct {
	// Lo and Hi give the cell's key range per GroupBy dimension —
	// half-open [Lo, Hi) on numeric dimensions (the dimension's last
	// cell closes at the domain maximum), inclusive leaf-rank ranges on
	// categorical ones.
	Lo []float64
	Hi []float64
	// Estimate is the cell's aggregate estimate.
	Estimate float64
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// CacheHits and CacheMisses count per-query cache lookups; a hit
	// includes batch-local duplicates answered by a single estimation.
	CacheHits   uint64
	CacheMisses uint64
	// Batches and Queries count successful Execute calls and the
	// queries they carried.
	Batches uint64
	Queries uint64
	// MaxBatch is the largest batch executed so far.
	MaxBatch uint64
	// CacheEntries is the current number of cached results.
	CacheEntries int
}

// Engine is the batch executor. It is safe for concurrent use; one engine
// serves every release of the store it fronts.
type Engine struct {
	maxBatch int
	cache    *resultCache

	jobs chan job
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool

	hits     atomic.Uint64
	misses   atomic.Uint64
	batches  atomic.Uint64
	queries  atomic.Uint64
	maxSeen  atomic.Uint64
	inflight sync.WaitGroup

	// stages holds the per-stage latency histograms the /metrics endpoint
	// renders; the h* fields cache the hot-path histogram pointers so
	// Observe skips the family's map lookup.
	stages     *obs.LabeledHistograms
	hQueueWait *obs.Histogram
	hEstimate  *obs.Histogram
	hCacheHit  *obs.Histogram
	hCacheMiss *obs.Histogram
}

// job is one uncached estimation dispatched to the pool. out and err are
// owned by the job until wg.Done, which publishes them to the waiting
// Execute call.
type job struct {
	snap     *release.Snapshot
	q        query.Query
	out      *float64
	err      *error
	wg       *sync.WaitGroup
	enqueued time.Time
	wait     *time.Duration // written by the worker: time spent queued
	rid      string         // request ID, exemplar for the stage histograms
}

// New starts an engine with the given options.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	capacity := opts.CacheCapacity
	if capacity == 0 {
		capacity = DefaultCacheCapacity
	}
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	stages := obs.NewLabeledHistograms()
	e := &Engine{
		maxBatch:   maxBatch,
		cache:      newResultCache(capacity),
		jobs:       make(chan job, 4*workers),
		stages:     stages,
		hQueueWait: stages.Get("engine.queue_wait"),
		hEstimate:  stages.Get("engine.estimate"),
		hCacheHit:  stages.Get("engine.cache_hit"),
		hCacheMiss: stages.Get("engine.cache_miss"),
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Close stops the worker pool after in-flight batches drain. Execute
// calls after Close fail with ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.inflight.Wait()
	close(e.jobs)
	e.wg.Wait()
}

// worker estimates jobs with a worker-owned scratch: the candidate
// bitset and buffers are allocated once per worker and reused for every
// query of every batch.
func (e *Engine) worker() {
	defer e.wg.Done()
	sc := &release.Scratch{}
	for j := range e.jobs {
		start := time.Now()
		wait := start.Sub(j.enqueued)
		e.hQueueWait.ObserveExemplar(wait, j.rid)
		if j.wait != nil {
			*j.wait = wait
		}
		*j.out, *j.err = j.snap.EstimateUnchecked(j.q, sc)
		e.hEstimate.ObserveExemplar(time.Since(start), j.rid)
		j.wg.Done()
	}
}

// Stages exposes the engine's per-stage latency histograms for the
// /metrics renderer.
func (e *Engine) Stages() *obs.LabeledHistograms { return e.stages }

// MaxBatch returns the configured per-call batch cap.
func (e *Engine) MaxBatch() int { return e.maxBatch }

// QueueDepth reports the estimation jobs waiting for a worker right now
// — the saturation gauge the load overview samples.
func (e *Engine) QueueDepth() int { return len(e.jobs) }

// Stats returns a point-in-time snapshot of the counters.
func (e *Engine) Stats() Stats {
	return Stats{
		CacheHits:    e.hits.Load(),
		CacheMisses:  e.misses.Load(),
		Batches:      e.batches.Load(),
		Queries:      e.queries.Load(),
		MaxBatch:     e.maxSeen.Load(),
		CacheEntries: e.cache.len(),
	}
}

// Execute answers qs against one release, in order. The release ID
// keys the cache and must be the store ID of the snapshot's release; the
// snapshot is resolved by the caller so the engine stays independent of
// the store's lifecycle states. When ctx carries an obs trace, the cache
// lookup and estimation phases are recorded as spans on it.
//
// Every query is validated before any estimation; the first invalid one
// fails the whole batch with a *QueryError carrying its index. Grouped
// queries are then expanded into their cells, and the batch fails with
// ErrBatchTooLarge when the expansion exceeds the engine's unit budget.
// Cache misses are deduplicated within the batch and fanned out across
// the worker pool; a single miss is estimated inline on the caller's
// goroutine, so single-query callers pay no handoff. Once ctx is done no
// further miss is estimated or sent to the pool: Execute waits for the
// estimations already sent and returns ctx.Err().
func (e *Engine) Execute(ctx context.Context, releaseID string, snap *release.Snapshot, qs []query.Query) ([]Result, error) {
	if len(qs) > e.maxBatch {
		return nil, fmt.Errorf("%w: %d queries > limit %d", ErrBatchTooLarge, len(qs), e.maxBatch)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.inflight.Add(1)
	e.mu.Unlock()
	defer e.inflight.Done()

	tr := obs.TraceFrom(ctx)
	tr.SetRelease(releaseID)
	rid := obs.RequestIDFrom(ctx)

	for i := range qs {
		if err := snap.ValidateQuery(qs[i]); err != nil {
			return nil, &QueryError{Index: i, Err: err}
		}
	}

	// Expand each grouped query into its per-cell scalar queries; an
	// ungrouped query is a single unit writing straight to its Result.
	// Units are what the cache, the batch-local dedup, and the worker
	// pool operate on, so repeated group cells — within one query, across
	// grouped queries, or against a matching ungrouped request — are
	// estimated once.
	results := make([]Result, len(qs))
	type unitRef struct {
		qi   int // index into qs/results
		cell int // index into results[qi].Groups; -1 for ungrouped
	}
	cells := make([][]query.GroupCell, len(qs))
	n := 0
	for i := range qs {
		if len(qs[i].GroupBy) == 0 {
			n++
			continue
		}
		cells[i] = query.GroupCells(snap.Schema, qs[i])
		n += len(cells[i])
	}
	units := make([]query.Query, 0, n)
	refs := make([]unitRef, 0, n)
	for i := range qs {
		if len(qs[i].GroupBy) == 0 {
			units = append(units, qs[i])
			refs = append(refs, unitRef{qi: i, cell: -1})
			continue
		}
		results[i].Groups = make([]GroupResult, len(cells[i]))
		results[i].Cached = true // cleared when any cell is computed fresh
		for ci, c := range cells[i] {
			results[i].Groups[ci] = GroupResult{Lo: c.Lo, Hi: c.Hi}
			units = append(units, c.Query)
			refs = append(refs, unitRef{qi: i, cell: ci})
		}
	}
	if len(units) > maxUnits {
		return nil, fmt.Errorf("%w: batch expands to %d scalar estimations (group cells included) > limit %d", ErrBatchTooLarge, len(units), maxUnits)
	}

	setUnit := func(r unitRef, est float64, cached bool) {
		if r.cell < 0 {
			results[r.qi].Estimate = est
			results[r.qi].Cached = cached
			return
		}
		results[r.qi].Groups[r.cell].Estimate = est
		if !cached {
			results[r.qi].Cached = false
		}
	}

	type miss struct {
		first int       // unit index computing the estimate
		rest  []unitRef // batch-local duplicates of the same signature
		est   float64
		err   error
		wait  time.Duration // time this miss's job spent queued
	}
	keys := make([]string, len(units))
	var misses []*miss
	bySig := make(map[string]*miss)
	var hits, lookups uint64
	lookupStart := time.Now()
	endLookup := tr.StartSpan("engine.cache")
	for i := range units {
		keys[i] = signature(releaseID, units[i])
		lookups++
		if est, ok := e.cache.get(keys[i]); ok {
			setUnit(refs[i], est, true)
			hits++
			continue
		}
		if m, ok := bySig[keys[i]]; ok {
			// Identical unit earlier in this batch: ride its
			// estimation instead of recomputing.
			m.rest = append(m.rest, refs[i])
			hits++
			continue
		}
		m := &miss{first: i}
		bySig[keys[i]] = m
		misses = append(misses, m)
	}
	endLookup()
	// The cache path splits by outcome: a batch fully answered from cache
	// records its lookup-loop latency as a hit, anything else as a miss.
	if len(misses) == 0 {
		e.hCacheHit.ObserveExemplar(time.Since(lookupStart), rid)
	} else {
		e.hCacheMiss.ObserveExemplar(time.Since(lookupStart), rid)
	}

	endEstimate := tr.StartSpan("engine.estimate")
	var err error
	switch len(misses) {
	case 0:
	case 1:
		if err = ctx.Err(); err != nil {
			break
		}
		m := misses[0]
		start := time.Now()
		m.est, m.err = snap.EstimateUnchecked(units[m.first], nil)
		e.hEstimate.ObserveExemplar(time.Since(start), rid)
	default:
		// A cancelled batch stops feeding the pool, but waits for the
		// jobs it already sent: they write into misses.
		var wg sync.WaitGroup
		fanStart := time.Now()
	send:
		for _, m := range misses {
			if err = ctx.Err(); err != nil {
				break
			}
			wg.Add(1)
			select {
			case e.jobs <- job{snap: snap, q: units[m.first], out: &m.est, err: &m.err, wg: &wg, enqueued: time.Now(), wait: &m.wait, rid: rid}:
			case <-ctx.Done():
				wg.Done()
				err = ctx.Err()
				break send
			}
		}
		wg.Wait()
		if tr != nil {
			// One span for the batch, not one per job: the worst queue wait
			// is the fan-out's contention signal, and it keeps a big batch's
			// slow-query line bounded.
			var maxWait time.Duration
			for _, m := range misses {
				if m.wait > maxWait {
					maxWait = m.wait
				}
			}
			tr.AddSpan("engine.queue_wait", "", fanStart, maxWait)
		}
	}
	endEstimate()
	if err != nil {
		return nil, err
	}

	for _, m := range misses {
		if m.err != nil {
			// Post-validation estimator failures are internal (e.g. a
			// perturbed release whose reconstruction matrix is
			// singular); surface the first one for the whole batch,
			// positioned at the query it expanded from.
			return nil, fmt.Errorf("query %d: %w", refs[m.first].qi, m.err)
		}
		setUnit(refs[m.first], m.est, false)
		for _, r := range m.rest {
			setUnit(r, m.est, true)
		}
		e.cache.put(keys[m.first], m.est)
	}

	e.hits.Add(hits)
	e.misses.Add(lookups - hits)
	e.batches.Add(1)
	e.queries.Add(uint64(len(qs)))
	for {
		cur := e.maxSeen.Load()
		if uint64(len(qs)) <= cur || e.maxSeen.CompareAndSwap(cur, uint64(len(qs))) {
			break
		}
	}
	return results, nil
}
