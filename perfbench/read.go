package main

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/pkg/api"
	"repro/pkg/client"
)

// readSpec is one read workload over the shared catalog.
type readSpec struct {
	method    string  // the release queried: "burel" or "perturb"
	batch     int     // queries per batch
	dashboard bool    // draw batches from the warmed pool, not the fresh stream
	hitRatio  float64 // the engine cache hit ratio the workload declares
	// checkEvery: 1 batch in checkEvery is answer-checked, sized so the
	// check costs about a second after a 20-second window.
	checkEvery int
}

var readWorkloads = map[string]readSpec{
	// Ad-hoc analysis: fresh queries only, so every unit is estimated.
	"explore": {method: "burel", batch: 64, hitRatio: 0, checkEvery: 16},
	// The same stream against the tuple-scanning perturbation estimator.
	"perturbed": {method: "perturb", batch: 4, hitRatio: 0, checkEvery: 64},
	// Repeated panels: a warmed pool, so nothing is estimated.
	"dashboard": {method: "burel", batch: 8, dashboard: true, hitRatio: 1, checkEvery: 16},
}

// methods are the catalog's two releases, both at the paper's β = 4.
var methods = []string{"burel", "perturb"}

const beta = 4

func params(method string, seed int64) anon.Params {
	if method == "burel" {
		return anon.NewBURELParams(anon.BURELBeta(beta), anon.BURELSeed(seed))
	}
	return anon.NewPerturbParams(anon.PerturbBeta(beta), anon.PerturbSeed(seed))
}

func toCSV(t *microdata.Table) (string, error) {
	var sb strings.Builder
	err := t.WriteCSV(&sb)
	return sb.String(), err
}

// call runs one pkg/client call; on a traced window it is recorded as a
// client span joined to the gateway's by the response's request ID.
func (c *benchCluster) call(ctx context.Context, method, path string, f func(context.Context) error) error {
	if c.rec == nil || !c.rec.on.Load() {
		return f(ctx)
	}
	ctx, slot := withIDSlot(ctx)
	start := time.Now()
	err := f(ctx)
	c.rec.add(span{kind: spanClient, method: method, path: path, id: slot.id, start: start, end: time.Now()})
	return err
}

// create submits one release through the gateway.
func (c *benchCluster) create(ctx context.Context, spec client.CreateSpec) (api.Release, error) {
	var rel api.Release
	err := c.call(ctx, http.MethodPost, "/v1/releases", func(ctx context.Context) (err error) {
		rel, err = c.client.CreateRelease(ctx, spec)
		return err
	})
	return rel, err
}

// catalog is the read workloads' set-up state.
type catalog struct {
	ids        map[string]string    // method → release ID
	ownerReady map[string]time.Time // release ID → seen ready on its owner
	idle       time.Duration        // the set-up's pause, left out of setup_s
}

// setupRead starts a cluster, pauses for phase, creates the catalog
// through the gateway, waits until both releases are ready on R nodes,
// and warms up: the dashboard's pool on each replica directly, then a
// fixed number of batches through the gateway.
func setupRead(ctx context.Context, cfg config, ws readSpec, dir string, csvs map[string]string, rec *recorder, phase time.Duration) (*benchCluster, catalog, batchSource, error) {
	cl, err := startCluster(dir, rec)
	if err != nil {
		return nil, catalog{}, nil, err
	}
	fail := func(err error) (*benchCluster, catalog, batchSource, error) {
		cl.close()
		return nil, catalog{}, nil, err
	}
	cat := catalog{ids: map[string]string{}, ownerReady: map[string]time.Time{}, idle: pause(phase)}
	for _, m := range methods {
		rel, err := cl.create(ctx, client.CreateSpec{Method: m, Params: params(m, cfg.seed), CSV: csvs[m]})
		if err != nil {
			return fail(fmt.Errorf("creating the %s release: %w", m, err))
		}
		cat.ids[m] = rel.ID
	}
	var ids []string
	for _, id := range cat.ids {
		ids = append(ids, id)
	}
	if err := cl.waitReady(ctx, ids, cat.ownerReady); err != nil {
		return fail(err)
	}
	if err := cl.waitReplicated(ctx, ids); err != nil {
		return fail(err)
	}
	id := cat.ids[ws.method]
	schema := census.Schema()
	var src batchSource = newFreshStream(schema, cfg.seed, ws.batch)
	if ws.dashboard {
		ps := newPoolStream(schema, cfg.seed, cfg.scale.poolSize, ws.batch)
		for _, n := range cl.holders(id) {
			for i := 0; i < len(ps.pool); i += 64 {
				if _, err := n.api.QueryBatch(ctx, id, ps.pool[i:min(i+64, len(ps.pool))]); err != nil {
					return fail(fmt.Errorf("warming %s: %w", n.id, err))
				}
			}
		}
		src = ps
	}
	for range cfg.scale.warmBatches {
		_, qs := src.next()
		if _, err := cl.client.QueryBatch(ctx, id, qs); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	return cl, cat, src, nil
}

// waitReady waits, concurrently, until each release is ready on its
// owner, recording when each was seen ready.
func (c *benchCluster) waitReady(ctx context.Context, ids []string, seen map[string]time.Time) error {
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.client.WaitReady(ctx, id, pollEvery)
			mu.Lock()
			defer mu.Unlock()
			seen[id] = time.Now()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("waiting for %s: %w", id, err)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// window is one timed closed-loop run of the read clients.
type window struct {
	slots   []slot // the window's whole slots, by completion time
	slotLen time.Duration
	latMS   []float64 // every batch round trip seen by the clients
	queries int       // answered queries
	batches int       // attempted batches
	failed  int
	errs    []string
	samples []sample
	elapsed time.Duration
}

// slot is two seconds of a window: the batches answered within it. The
// end-to-end figures are medians over slots, so a host that runs fast or
// slow for a few seconds moves one slot, not the figure. Two seconds
// hold over 40 batches beyond the p90 on every workload.
type slot struct {
	queries int
	latMS   []float64
}

// runWindow drives the closed loop: each client sends its next batch
// when the previous one is answered, until d has passed; batches sent
// before then are waited for and counted. Each answered batch is filed
// under the slot it completed in; the slot the deadline cuts is left
// out of the slots.
func (c *benchCluster) runWindow(ctx context.Context, id string, src batchSource, d time.Duration, seed int64, every int) *window {
	// A window shorter than a slot is one slot.
	sl := min(2*time.Second, d)
	w := &window{slots: make([]slot, int(d/sl)), slotLen: sl}
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := window{slots: make([]slot, len(w.slots))}
			for time.Now().Before(deadline) {
				i, qs := src.next()
				var resp *api.BatchQueryResponse
				t0 := time.Now()
				err := c.call(ctx, http.MethodPost, "/v1/query:batch", func(ctx context.Context) (err error) {
					resp, err = c.client.QueryBatch(ctx, id, qs)
					return err
				})
				t1 := time.Now()
				l.batches++
				if err != nil {
					l.failed++
					l.errs = append(l.errs, err.Error())
					continue
				}
				lat := ms(t1.Sub(t0))
				l.latMS = append(l.latMS, lat)
				l.queries += len(qs)
				if k := int(t1.Sub(start) / sl); k < len(l.slots) {
					l.slots[k].queries += len(qs)
					l.slots[k].latMS = append(l.slots[k].latMS, lat)
				}
				if sampled(seed, i, every) {
					l.samples = append(l.samples, sample{queries: qs, results: resp.Results})
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for k, s := range l.slots {
				w.slots[k].queries += s.queries
				w.slots[k].latMS = append(w.slots[k].latMS, s.latMS...)
			}
			w.latMS = append(w.latMS, l.latMS...)
			w.queries += l.queries
			w.batches += l.batches
			w.failed += l.failed
			w.errs = append(w.errs, l.errs...)
			w.samples = append(w.samples, l.samples...)
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// qps is the median over the window's slots of the queries answered per
// second.
func (w *window) qps() float64 {
	if len(w.slots) == 0 {
		return 0
	}
	per := make([]float64, len(w.slots))
	for k, s := range w.slots {
		per[k] = float64(s.queries) / w.slotLen.Seconds()
	}
	return median(per)
}

// latency is the median over the window's slots of each slot's exact
// q-quantile batch round trip. Every slot must hold minBeyond samples
// beyond its quantile; least is the fewest any slot held.
func (w *window) latency(q float64) (value float64, n, least int, err error) {
	per := make([]float64, len(w.slots))
	least = -1
	for k, s := range w.slots {
		v, err := exactQuantile(s.latMS, q)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("slot %d of %d: %w", k+1, len(w.slots), err)
		}
		per[k] = v.value
		n += v.n
		if least < 0 || v.beyond < least {
			least = v.beyond
		}
	}
	if len(per) == 0 {
		return 0, 0, 0, fmt.Errorf("the window has no whole slot")
	}
	return median(per), n, least, nil
}

// account adds a window's operations to the report, answer-checks its
// samples against ref, and checks the engine hit ratio the nodes'
// counters show against the workload's declared one.
func (w *window) account(rep *report, ws readSpec, ref *referee, before, after exposition) {
	rep.Attempted += w.batches
	rep.Failed += w.failed
	for _, e := range w.errs {
		rep.fail("batch failed: %s", e)
	}
	for _, s := range w.samples {
		if err := ref.check(s); err != nil {
			rep.Failed++
			rep.fail("answer mismatch: %v", err)
		}
	}
	hits := delta(before, after, "repro_engine_cache_hits_total")
	misses := delta(before, after, "repro_engine_cache_misses_total")
	if hits+misses == 0 || hits/(hits+misses) != ws.hitRatio {
		rep.fail("engine hit ratio %v over %v units, declared %v", ratio(hits, hits+misses), hits+misses, ws.hitRatio)
	}
}

// runRead runs one read workload: set up several times (setup_s is the
// median), measure the live heap, run the timed window — or, traced, an
// untraced and a traced window — check answers and hit ratio, then close
// the cluster and re-open its data directories.
func runRead(ctx context.Context, cfg config, ws readSpec, dir string, rep *report) error {
	sc := cfg.scale
	tables := map[string]*microdata.Table{
		"burel":   census.Generate(census.Options{N: sc.burelRows, Seed: cfg.seed}),
		"perturb": census.Generate(census.Options{N: sc.perturbRows, Seed: cfg.seed + 1}),
	}
	rows := sc.burelRows + sc.perturbRows
	csvs := map[string]string{}
	for m, t := range tables {
		var err error
		if csvs[m], err = toCSV(t); err != nil {
			return err
		}
	}
	li := &layerInputs{}
	if cfg.trace {
		if err := li.timeAnonymize(ctx, tables, cfg.seed); err != nil {
			return err
		}
	}
	tables = nil

	var rec *recorder
	setups := sc.setups
	if cfg.trace {
		rec = &recorder{}
		rec.on.Store(true)
		setups = 1
	}
	var (
		setupS   []float64
		recoverS []float64
		cl       *benchCluster
		cat      catalog
		src      batchSource
	)
	for k := range setups {
		clDir := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		phase := replicatorPoll * time.Duration(k) / time.Duration(setups)
		start := time.Now()
		var err error
		if cl, cat, src, err = setupRead(ctx, cfg, ws, clDir, csvs, rec, phase); err != nil {
			return err
		}
		setupS = append(setupS, (time.Since(start) - cat.idle).Seconds())
		if k < setups-1 {
			// Re-opening every set-up's directories, not only the last
			// one's, samples recovery at several moments of the run.
			secs, err := restart(cl, li, sc.reopens, rep)
			if err != nil {
				return err
			}
			recoverS = append(recoverS, secs...)
			if err := os.RemoveAll(clDir); err != nil {
				return err
			}
		}
	}
	closed := false
	defer func() {
		if !closed {
			cl.close()
		}
	}()
	csvs = nil
	heap := liveHeapMiB()
	id := cat.ids[ws.method]

	snap, err := cl.fetchSnapshot(ctx, id)
	if err != nil {
		return err
	}
	ref := &referee{snap: snap, nudge: cfg.nudge}

	var w *window
	if !cfg.trace {
		before, err := cl.scrapeNodes()
		if err != nil {
			return err
		}
		w = cl.runWindow(ctx, id, src, cfg.window(), cfg.seed, ws.checkEvery)
		after, err := cl.scrapeNodes()
		if err != nil {
			return err
		}
		w.account(rep, ws, ref, before, after)
	} else {
		setupSpans := rec.take()
		rec.on.Store(false)
		nodesSetup, gwSetup, err := cl.scrapeAll()
		if err != nil {
			return err
		}
		// The untraced window: the baseline of the tracing overhead.
		untraced := cl.runWindow(ctx, id, src, cfg.window(), cfg.seed, ws.checkEvery)
		before, gwBefore, err := cl.scrapeAll()
		if err != nil {
			return err
		}
		untraced.account(rep, ws, ref, nodesSetup, before)
		rec.on.Store(true)
		w = cl.runWindow(ctx, id, src, cfg.window(), cfg.seed, ws.checkEvery)
		rec.on.Store(false)
		after, gwAfter, err := cl.scrapeAll()
		if err != nil {
			return err
		}
		w.account(rep, ws, ref, before, after)

		// The traced phases are the set-up and the traced window. The
		// counters start at zero with the cluster, so the set-up's share
		// is the scrape taken after it.
		setupIx, winIx := indexSpans(setupSpans), indexSpans(rec.take())
		li.ops, li.opsOf = winIx.ledger(http.MethodPost, "/v1/query:batch"), "batches"
		li.creates = setupIx.ledger(http.MethodPost, "/v1/releases")
		li.addNodeBatches(setupIx, winIx)
		li.window = diff(before, after)
		li.engine = sum(nodesSetup, li.window)
		li.gw = sum(gwSetup, diff(gwBefore, gwAfter))
		li.replRows = rows
		li.lags = replicationLags(setupIx.installs, cat.ownerReady)
		// Over whole windows: a median over a half-window's few slots
		// moves in steps of one batch per slot, too coarse for a ratio
		// of two near-equal rates.
		li.overheadPct = (float64(untraced.queries)/untraced.elapsed.Seconds()/(float64(w.queries)/w.elapsed.Seconds()) - 1) * 100
		schema := census.Schema()
		for _, m := range methods {
			s, err := cl.fetchSnapshot(ctx, cat.ids[m])
			if err != nil {
				return err
			}
			if err := li.costEstimator(m, s, estimatorSample(schema, cfg.seed, sc.estimatorBatches[m])); err != nil {
				return err
			}
		}
	}

	closed = true
	secs, err := restart(cl, li, sc.reopens, rep)
	if err != nil {
		return err
	}
	recoverS = append(recoverS, secs...)
	methodOf := map[string]string{cat.ids["burel"]: "burel", cat.ids["perturb"]: "perturb"}
	disk, err := li.diskUsage(cl, methodOf, map[string]int{cat.ids["burel"]: sc.burelRows, cat.ids["perturb"]: sc.perturbRows})
	if err != nil {
		return err
	}

	if cfg.trace {
		li.emit(rep)
		return nil
	}
	p50, n50, least50, err := w.latency(0.50)
	if err != nil {
		return fmt.Errorf("batch p50: %w", err)
	}
	p90, n90, least90, err := w.latency(0.90)
	if err != nil {
		return fmt.Errorf("batch p90: %w", err)
	}
	slots := len(w.slots)
	rep.add(metric{Name: "setup_s", Value: median(setupS), Unit: "s", Base: len(setupS), BaseOf: "set-ups",
		Source: fmt.Sprintf("median of cluster start → catalog created through the gateway → ready on R=2 nodes → warm-up, the %d set-ups' builds meeting the replicator's poll at evenly spread phases", len(setupS))})
	rep.add(metric{Name: "heap_mb", Value: heap, Unit: "MiB", Base: 1, BaseOf: "forced GC",
		Source: "live heap at the end of set-up, benchmark tables released"})
	rep.add(metric{Name: "throughput_per_s", Label: "query_qps", Value: w.qps(), Unit: "1/s",
		Base: w.queries, BaseOf: "queries",
		Source: fmt.Sprintf("median over %d two-second slots of queries answered; %.1f/s over the whole %.3f s window", slots, float64(w.queries)/w.elapsed.Seconds(), w.elapsed.Seconds())})
	rep.add(metric{Name: "latency_p50_ms", Label: "batch_p50_ms", Value: p50, Unit: "ms", Base: n50, BaseOf: "batches",
		Source: fmt.Sprintf("median over %d slots of each slot's exact median batch round trip, ≥ %d beyond in every slot", slots, least50)})
	rep.add(metric{Name: "latency_tail_ms", Label: "batch_p90_ms", Value: p90, Unit: "ms", Base: n90, BaseOf: "batches",
		Source: fmt.Sprintf("median over %d slots of each slot's exact p90 batch round trip, ≥ %d beyond in every slot", slots, least90)})
	// The p99 varies too much from run to run on a shared machine to
	// gate; it is printed, over the whole window, when the window
	// supports it.
	if p99, err := exactQuantile(w.latMS, 0.99); err == nil {
		rep.add(metric{Name: "batch_p99_ms", Value: p99.value, Unit: "ms", Base: p99.n, BaseOf: "batches", Ungated: true,
			Source: fmt.Sprintf("exact p99 batch round trip over the whole window, %d beyond", p99.beyond)})
	}
	if fs, ok := src.(*freshStream); ok {
		rep.add(metric{Name: "stream.repeats_dropped", Value: float64(fs.dropped), Unit: "count", Base: fs.drawn, BaseOf: "queries drawn", Ungated: true,
			Source: fmt.Sprintf("exact repeats dropped from the seeded stream; %d draws with only categorical predicates left out", fs.skipped)})
	}
	rep.add(metric{Name: "recover_s", Value: median(recoverS), Unit: "s", Base: len(recoverS), BaseOf: "re-opens",
		Source: "median time to re-open the three data dirs with release.OpenNode"})
	rep.add(disk)
	return nil
}

// restart closes a read cluster and re-opens its data directories,
// checking that each store still holds its node's releases, all ready.
func restart(cl *benchCluster, li *layerInputs, times int, rep *report) ([]float64, error) {
	expect := map[string][]string{}
	for _, n := range cl.nodes {
		for _, m := range n.store.List() {
			expect[n.id] = append(expect[n.id], m.ID)
		}
	}
	cl.close()
	secs, bad, err := li.reopenAll(cl, expect, times, nil)
	if err != nil {
		return nil, err
	}
	for _, id := range slices.Sorted(maps.Keys(bad)) {
		rep.fail("recovery of %s: %v", id, bad[id])
	}
	return secs, nil
}
