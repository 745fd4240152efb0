package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/internal/release"
	"repro/pkg/api"
	"repro/pkg/client"
)

// publishQI is the paper's default quasi-identifier count.
const publishQI = 3

// pub is one publish: a seeded table uploaded with one method's params.
type pub struct {
	index  int
	table  int
	method string
	id     string
	start  time.Time
	ready  time.Time // seen ready on the owner
	err    error
}

// publisher holds the publish workload's inputs: the seeded tables as
// CSV, the probe queries, and each table's reference probe answers per
// method from an in-process anon.Anonymize + release.NewSnapshot.
type publisher struct {
	cfg    config
	csvs   []string
	probes []query.Query // one per aggregate
	wire   []api.Query
	refs   []map[string][]float64 // [table][method] → probe answers
	nudge  bool
	// traced runs keep table 0's reference snapshots to cost the
	// estimator on.
	refSnaps map[string]*release.Snapshot
}

func newPublisher(ctx context.Context, cfg config, li *layerInputs) (*publisher, error) {
	sc := cfg.scale
	schema := census.Schema().Project(publishQI)
	p := &publisher{cfg: cfg, nudge: cfg.nudge}
	gen := newQueryGen(schema, cfg.seed)
	for _, agg := range aggregates {
		q := gen.next()
		q.Agg, q.GroupBy, q.GroupBuckets = query.Aggregate(agg), nil, nil
		p.probes = append(p.probes, q)
		p.wire = append(p.wire, toAPI(q))
	}
	for i := range sc.publishTables {
		t := census.Generate(census.Options{N: sc.publishRows, Seed: cfg.seed*1000 + int64(i)}).Project(publishQI)
		csv, err := toCSV(t)
		if err != nil {
			return nil, err
		}
		// The table exactly as a node parses the upload.
		parsed, err := microdata.ReadCSV(strings.NewReader(csv), schema)
		if err != nil {
			return nil, err
		}
		refs := map[string][]float64{}
		for _, m := range methods {
			start := time.Now()
			rel, err := anon.Anonymize(ctx, parsed, params(m, cfg.seed))
			if err != nil {
				return nil, err
			}
			li.addAnon(m, time.Since(start), parsed.Len())
			snap, err := release.NewSnapshot(rel, 0)
			if err != nil {
				return nil, err
			}
			if refs[m], err = estimateAll(snap, p.probes); err != nil {
				return nil, err
			}
			if cfg.trace && i == 0 {
				if p.refSnaps == nil {
					p.refSnaps = map[string]*release.Snapshot{}
				}
				p.refSnaps[m] = snap
			}
		}
		p.csvs = append(p.csvs, csv)
		p.refs = append(p.refs, refs)
	}
	return p, nil
}

func estimateAll(snap *release.Snapshot, qs []query.Query) ([]float64, error) {
	out := make([]float64, len(qs))
	for i, q := range qs {
		var err error
		if out[i], err = snap.Estimate(q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// spec is publish i's table and method: methods alternate, and each
// table is published with both.
func (p *publisher) spec(i int) pub {
	return pub{index: i, table: (i / 2) % len(p.csvs), method: methods[i%2]}
}

// publish uploads one table through the gateway and waits until the
// release is ready on its owner, polling every 2 ms.
func (p *publisher) publish(ctx context.Context, cl *benchCluster, i int) pub {
	r := p.spec(i)
	r.start = time.Now()
	rel, err := cl.create(ctx, client.CreateSpec{Method: r.method, Params: params(r.method, p.cfg.seed), QI: publishQI, CSV: p.csvs[r.table]})
	if err != nil {
		r.err = err
		return r
	}
	r.id = rel.ID
	if _, err := cl.client.WaitReady(ctx, rel.ID, pollEvery); err != nil {
		r.err = err
		return r
	}
	r.ready = time.Now()
	return r
}

// phase runs publishes first…first+n−1 from the closed-loop publishers,
// then waits until every release is ready on R nodes. elapsed runs from
// the first create to the last replica.
func (p *publisher) phase(ctx context.Context, cl *benchCluster, first, n int) (pubs []pub, elapsed time.Duration, err error) {
	pubs = make([]pub, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				pubs[k] = p.publish(ctx, cl, first+k)
			}
		}()
	}
	wg.Wait()
	var ids []string
	for _, r := range pubs {
		if r.err == nil {
			ids = append(ids, r.id)
		}
	}
	if err := cl.waitReplicated(ctx, ids); err != nil {
		return nil, 0, err
	}
	return pubs, time.Since(start), nil
}

// matches compares served probe answers with the reference bit for bit.
func (p *publisher) matches(r pub, got []float64) error {
	want := p.refs[r.table][r.method]
	for i := range want {
		w := want[i]
		if p.nudge {
			p.nudge = false
			w = math.Nextafter(w, math.Inf(1))
		}
		if i >= len(got) || math.Float64bits(got[i]) != math.Float64bits(w) {
			return fmt.Errorf("probe %d: served %v, in-process reference %v", i, got, want)
		}
	}
	return nil
}

// round is one publish round on a fresh cluster: its set-up, a fixed
// count of publishes, the copy checks, and the re-opens.
type round struct {
	setup   time.Duration
	lat     []float64 // create → ready on the owner, ms
	rows    int       // rows published in the timed phase
	elapsed time.Duration
	reopenS []float64 // seconds per re-open of the three data dirs
	heapMiB float64
	disk    metric
}

// runRound starts a cluster over fresh data directories, warms up with
// one publish per method (the set-up), publishes n releases, checks that
// every release is ready on R nodes with each copy — and each re-opened
// store — answering the probes with the in-process reference's bits,
// and re-opens the data directories. With traced set, the whole round up
// to the copy checks is recorded into li's per-layer inputs. With last
// set, the benchmark's tables are released before the live heap is
// measured.
func (p *publisher) runRound(ctx context.Context, dir string, n int, rec *recorder, traced, last bool, li *layerInputs, rep *report) (round, error) {
	var rd round
	if traced {
		rec.on.Store(true)
	}
	start := time.Now()
	cl, err := startCluster(dir, rec)
	if err != nil {
		return rd, err
	}
	closed := false
	defer func() {
		if !closed {
			cl.close()
		}
	}()
	all, _, err := p.phase(ctx, cl, 0, len(methods))
	if err != nil {
		return rd, err
	}
	rd.setup = time.Since(start)

	pubs, elapsed, err := p.phase(ctx, cl, len(methods), n)
	if err != nil {
		return rd, err
	}
	rd.elapsed = elapsed
	for _, r := range pubs {
		if r.err == nil {
			rd.lat = append(rd.lat, ms(r.ready.Sub(r.start)))
			rd.rows += p.cfg.scale.publishRows
		}
	}
	all = append(all, pubs...)
	if last {
		p.csvs = nil
		rd.heapMiB = liveHeapMiB()
	}

	// Every release must be ready on R nodes, each copy answering the
	// probes with the in-process reference's bits.
	failed := map[int]error{}
	byID := map[string]pub{}
	for _, r := range all {
		if r.err != nil {
			failed[r.index] = r.err
			continue
		}
		byID[r.id] = r
	}
	expect := map[string][]string{}
	copies := map[string]int{}
	for _, nd := range cl.nodes {
		for _, m := range nd.store.List() {
			r, ok := byID[m.ID]
			if !ok {
				continue
			}
			expect[nd.id] = append(expect[nd.id], m.ID)
			if m.Status != release.StatusReady {
				failed[r.index] = fmt.Errorf("%s holds %s %s", nd.id, m.ID, m.Status)
				continue
			}
			copies[m.ID]++
			resp, err := nd.api.QueryBatch(ctx, m.ID, p.wire)
			if err == nil {
				got := make([]float64, len(resp.Results))
				for i, res := range resp.Results {
					got[i] = res.Estimate
				}
				err = p.matches(r, got)
			}
			if err != nil {
				failed[r.index] = fmt.Errorf("%s on %s: %w", m.ID, nd.id, err)
			}
		}
	}
	for id, r := range byID {
		if copies[id] < replication {
			failed[r.index] = fmt.Errorf("%s is ready on %d nodes, want %d", id, copies[id], replication)
		}
	}
	if traced {
		// The cluster's counters started at zero with the round.
		rec.on.Store(false)
		nodes, gw, err := cl.scrapeAll()
		if err != nil {
			return rd, err
		}
		ix := indexSpans(rec.take())
		li.ops, li.opsOf = ix.ledger(http.MethodPost, "/v1/releases"), "creates"
		li.creates = li.ops
		li.addNodeBatches(ix)
		li.engine, li.window, li.gw = nodes, nodes, gw
		ready := map[string]time.Time{}
		for id, r := range byID {
			ready[id] = r.ready
			li.replRows += p.cfg.scale.publishRows
		}
		li.lags = replicationLags(ix.installs, ready)
	}
	cl.close()
	closed = true

	var bad map[string]error
	rd.reopenS, bad, err = li.reopenAll(cl, expect, p.cfg.scale.roundReopens, func(st *release.Store) map[string]error {
		out := map[string]error{}
		for _, m := range st.List() {
			r, ok := byID[m.ID]
			if !ok || m.Status != release.StatusReady {
				continue
			}
			snap, err := st.Snapshot(m.ID)
			if err == nil {
				var got []float64
				if got, err = estimateAll(snap, p.probes); err == nil {
					err = p.matches(r, got)
				}
			}
			if err != nil {
				out[m.ID] = fmt.Errorf("re-opened on %s: %w", st.Node(), err)
			}
		}
		return out
	})
	if err != nil {
		return rd, err
	}
	for id, err := range bad {
		if r, ok := byID[id]; ok {
			failed[r.index] = err
		} else {
			rep.fail("recovery: %v", err)
		}
	}
	methodOf, rows := map[string]string{}, map[string]int{}
	for id, r := range byID {
		methodOf[id], rows[id] = r.method, p.cfg.scale.publishRows
	}
	if rd.disk, err = li.diskUsage(cl, methodOf, rows); err != nil {
		return rd, err
	}
	rep.Attempted += len(all)
	rep.Failed += len(failed)
	for i := range len(all) {
		if err, ok := failed[i]; ok {
			rep.fail("publish %d: %v", i, err)
		}
	}
	return rd, nil
}

// runPublish runs the publish workload as rounds on fresh clusters, each
// a fixed count of publishes, so a longer run measures more rounds
// without the nodes' memory growing. Traced, it runs one untraced and
// one traced round.
func runPublish(ctx context.Context, cfg config, dir string, rep *report) error {
	sc := cfg.scale
	li := &layerInputs{}
	p, err := newPublisher(ctx, cfg, li)
	if err != nil {
		return err
	}
	rounds := max(1, cfg.seconds*sc.publishesPerSecond/sc.roundPublishes)
	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
		rounds = 2
	}
	var rds []round
	for k := range rounds {
		rdDir := filepath.Join(dir, fmt.Sprintf("round-%d", k))
		rd, err := p.runRound(ctx, rdDir, sc.roundPublishes, rec, cfg.trace && k == 1, k == rounds-1, li, rep)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(rdDir); err != nil {
			return err
		}
		rds = append(rds, rd)
	}
	if cfg.trace {
		li.overheadPct = (rds[1].elapsed.Seconds()/rds[0].elapsed.Seconds() - 1) * 100
		schema := census.Schema().Project(publishQI)
		for _, m := range methods {
			if err := li.costEstimator(m, p.refSnaps[m], estimatorSample(schema, cfg.seed, sc.estimatorBatches[m])); err != nil {
				return err
			}
		}
		li.emit(rep)
		return nil
	}
	// Each figure is a median over rounds, so a round the host ran fast
	// or slow moves one sample, not the figure.
	var setupS, rowsPerS, p50s, p90s, recoverS []float64
	var rows, pubs, least50, least90 int
	for k, rd := range rds {
		setupS = append(setupS, rd.setup.Seconds())
		rowsPerS = append(rowsPerS, float64(rd.rows)/rd.elapsed.Seconds())
		recoverS = append(recoverS, rd.reopenS...)
		rows += rd.rows
		pubs += len(rd.lat)
		p50, err := exactQuantile(rd.lat, 0.50)
		if err != nil {
			return fmt.Errorf("publish p50 of round %d: %w", k+1, err)
		}
		p90, err := exactQuantile(rd.lat, 0.90)
		if err != nil {
			return fmt.Errorf("publish p90 of round %d: %w", k+1, err)
		}
		p50s, p90s = append(p50s, p50.value), append(p90s, p90.value)
		if k == 0 || p50.beyond < least50 {
			least50 = p50.beyond
		}
		if k == 0 || p90.beyond < least90 {
			least90 = p90.beyond
		}
	}
	last := rds[len(rds)-1]
	rep.add(metric{Name: "setup_s", Value: median(setupS), Unit: "s", Base: len(setupS), BaseOf: "rounds",
		Source: "median of cluster start on fresh data dirs → one warm-up publish per method ready on R=2 nodes"})
	rep.add(metric{Name: "heap_mb", Value: last.heapMiB, Unit: "MiB", Base: 1, BaseOf: "forced GC",
		Source: "live heap once every release of the last round is on R nodes, benchmark tables released"})
	rep.add(metric{Name: "throughput_per_s", Label: "publish_rows_per_s", Value: median(rowsPerS), Unit: "1/s",
		Base: rows, BaseOf: "rows", Source: fmt.Sprintf("median over %d rounds of rows published ÷ (first create → last replica)", len(rds))})
	rep.add(metric{Name: "latency_p50_ms", Label: "publish_p50_ms", Value: median(p50s), Unit: "ms", Base: pubs, BaseOf: "publishes",
		Source: fmt.Sprintf("median over %d rounds of each round's exact median create → ready on the owner, ≥ %d beyond in every round", len(rds), least50)})
	rep.add(metric{Name: "latency_tail_ms", Label: "publish_p90_ms", Value: median(p90s), Unit: "ms", Base: pubs, BaseOf: "publishes",
		Source: fmt.Sprintf("median over %d rounds of each round's exact p90 create → ready on the owner, ≥ %d beyond in every round", len(rds), least90)})
	rep.add(metric{Name: "recover_s", Value: median(recoverS), Unit: "s", Base: len(recoverS), BaseOf: "re-opens",
		Source: "median time to re-open the three data dirs with release.OpenNode"})
	rep.add(last.disk)
	return nil
}
