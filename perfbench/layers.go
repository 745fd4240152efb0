package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/anon"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/internal/release"
)

// layerInputs gathers what one traced run measured at each layer: the
// traced phases are a read run's set-up and traced window, or a publish
// run's traced round with its copy checks. Every time metric thus
// measures work on every workload.
type layerInputs struct {
	ops     layerTimes // the workload's operations: batches, or publishes' creates
	opsOf   string     // what ops counts: "batches" or "creates"
	creates layerTimes // POST /v1/releases (the read set-up's or the publish round's)

	nodeBatches   int           // node handler spans of POST /v1/query:batch
	nodeBatchTime time.Duration // and their summed duration

	engine   exposition // node counter deltas over the traced phases
	window   exposition // node counter deltas over the timed operations alone
	gw       exposition // gateway counter deltas over the traced phases
	replRows int        // rows of the releases replicated meanwhile

	lags        []time.Duration // owner ready → ready on every replica
	overheadPct float64

	anonTime map[string]time.Duration // timed anon.Anonymize, by method
	anonRows map[string]int

	estTime  map[string]time.Duration // timed Snapshot.EstimateUnchecked, by method
	estUnits map[string]int

	candidates, candidateUnits int

	opens         []time.Duration // release.OpenNode, per data directory
	decodeSecs    float64
	decodeCount   uint64
	snapBytes     map[string]int64 // snapshot file bytes, by method
	snapRowCopies map[string]int   // rows × copies those files hold, by method
}

// timeAnonymize runs anon.Anonymize in process on each method's table,
// as the nodes' builds do, and keeps the time per row.
func (li *layerInputs) timeAnonymize(ctx context.Context, tables map[string]*microdata.Table, seed int64) error {
	for _, m := range methods {
		start := time.Now()
		if _, err := anon.Anonymize(ctx, tables[m], params(m, seed)); err != nil {
			return err
		}
		li.addAnon(m, time.Since(start), tables[m].Len())
	}
	return nil
}

func (li *layerInputs) addAnon(method string, d time.Duration, rows int) {
	if li.anonTime == nil {
		li.anonTime, li.anonRows = map[string]time.Duration{}, map[string]int{}
	}
	li.anonTime[method] += d
	li.anonRows[method] += rows
}

// estimatorSample is the seeded sample the estimator layer is costed
// on: the first batches of 64 of the fresh stream over schema, the same
// units for a given seed however fast the run went.
func estimatorSample(schema *microdata.Schema, seed int64, batches int) []query.Query {
	s := newFreshStream(schema, seed, 64)
	var out []query.Query
	for range batches {
		_, qs := s.next()
		for _, q := range qs {
			out = append(out, units(schema, fromAPI(q))...)
		}
	}
	return out
}

// costEstimator times Snapshot.EstimateUnchecked in process over the
// sample's units, one after another. On a generalized release it also
// sums ECIndex.Candidates: the ECs the grid index leaves for exact
// verification.
func (li *layerInputs) costEstimator(method string, snap *release.Snapshot, sample []query.Query) error {
	if li.estTime == nil {
		li.estTime, li.estUnits = map[string]time.Duration{}, map[string]int{}
	}
	sc := &release.Scratch{}
	start := time.Now()
	for _, u := range sample {
		if _, err := snap.EstimateUnchecked(u, sc); err != nil {
			return err
		}
	}
	li.estTime[method] += time.Since(start)
	li.estUnits[method] += len(sample)
	if snap.Index != nil {
		for _, u := range sample {
			li.candidates += snap.Index.Candidates(u)
		}
		li.candidateUnits += len(sample)
	}
	return nil
}

// addNodeBatches totals the node handler spans of batch queries.
func (li *layerInputs) addNodeBatches(ixs ...*spanIndex) {
	for _, ix := range ixs {
		for _, spans := range ix.nodes {
			for _, s := range spans {
				if s.path == "/v1/query:batch" {
					li.nodeBatches++
					li.nodeBatchTime += s.dur()
				}
			}
		}
	}
}

// replicationLags pairs each release's owner-ready time with the last
// successful snapshot install on a replica (R−1 of them per release).
func replicationLags(installs []span, ownerReady map[string]time.Time) []time.Duration {
	last := map[string]time.Time{}
	copies := map[string]int{}
	for _, s := range installs {
		copies[s.id]++
		if s.end.After(last[s.id]) {
			last[s.id] = s.end
		}
	}
	var lags []time.Duration
	for id, ready := range ownerReady {
		if copies[id] >= replication-1 {
			lags = append(lags, last[id].Sub(ready))
		}
	}
	return lags
}

// reopenAll re-opens a closed cluster's data directories `times` times,
// one directory after another as a restarted cluster would. Every
// re-opened store must hold exactly the releases expect lists for its
// node, all ready; check, when set, vets each store further. It returns
// each re-open's total seconds and the releases that failed a check.
func (li *layerInputs) reopenAll(cl *benchCluster, expect map[string][]string, times int, check func(*release.Store) map[string]error) ([]float64, map[string]error, error) {
	bad := map[string]error{}
	var totals []float64
	for range times {
		var total time.Duration
		for _, n := range cl.nodes {
			// A restarted node starts with an empty heap; collecting first
			// keeps this process's garbage out of the timing.
			runtime.GC()
			start := time.Now()
			st, err := release.OpenNode(n.dir, release.DefaultWorkers, n.id)
			d := time.Since(start)
			if err != nil {
				return nil, nil, err
			}
			total += d
			li.opens = append(li.opens, d)
			h := st.Stages().Get("store.snapshot_decode")
			li.decodeSecs += h.Sum()
			li.decodeCount += h.Count()
			got := map[string]bool{}
			for _, m := range st.List() {
				got[m.ID] = true
				if m.Status != release.StatusReady {
					bad[m.ID] = fmt.Errorf("re-opened %s holds it %s: %s", n.id, m.Status, m.Error)
				}
			}
			for _, id := range expect[n.id] {
				if !got[id] {
					bad[id] = fmt.Errorf("re-opened %s lost it", n.id)
				}
			}
			if len(got) != len(expect[n.id]) || st.Recovery().Ready != len(expect[n.id]) {
				bad[n.id] = fmt.Errorf("re-opened %s recovered %d ready of %d releases, expected %d",
					n.id, st.Recovery().Ready, len(got), len(expect[n.id]))
			}
			if check != nil {
				for id, err := range check(st) {
					bad[id] = err
				}
			}
			st.Close()
		}
		totals = append(totals, total.Seconds())
	}
	return totals, bad, nil
}

// diskUsage measures the nodes' data directories: every byte ÷ (rows
// published × R) as the end-to-end metric, and the snapshot files by
// method for the per-layer ones. methodOf and rows map each release to
// its method and row count.
func (li *layerInputs) diskUsage(cl *benchCluster, methodOf map[string]string, rows map[string]int) (metric, error) {
	li.snapBytes, li.snapRowCopies = map[string]int64{}, map[string]int{}
	var total int64
	for _, n := range cl.nodes {
		total += n.store.DiskSize()
		entries, err := os.ReadDir(n.dir)
		if err != nil {
			return metric{}, err
		}
		for _, e := range entries {
			id, ok := strings.CutSuffix(e.Name(), ".snap")
			if !ok {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return metric{}, err
			}
			m := methodOf[id]
			li.snapBytes[m] += info.Size()
			li.snapRowCopies[m] += rows[id]
		}
	}
	published := 0
	for _, r := range rows {
		published += r
	}
	return metric{Name: "disk_bytes_per_row", Value: float64(total) / float64(published*replication), Unit: "B/row",
		Base: published, BaseOf: "rows published",
		Source: fmt.Sprintf("%d bytes in the three data dirs ÷ (rows × R=%d)", total, replication)}, nil
}

// emit reports every per-layer metric, each with its base count and
// source.
func (li *layerInputs) emit(rep *report) {
	add := func(name string, v float64, unit string, base int, baseOf, source string) {
		rep.add(metric{Name: name, Value: v, Unit: unit, Base: base, BaseOf: baseOf, Source: source})
	}
	none := exposition{}
	o, c, opName := li.ops, li.creates, li.opsOf
	add("client.self_us", ratio(us(o.clientSelf), float64(o.ops)), "us", o.ops, opName,
		"pkg/client call span − gateway handler span")
	add("cluster.gateway_self_us", ratio(us(o.gatewaySelf), float64(o.ops)), "us", o.ops, opName,
		"gateway handler span − union of its node exchanges")
	add("cluster.exchanges_per_req", ratio(float64(o.exchanges), float64(o.ops)), "count", o.ops, opName,
		"gateway → node exchanges per request")
	add("cluster.transport_us", ratio(us(o.transport), float64(o.nodeSpans)), "us", o.nodeSpans, "exchanges",
		"exchange span − the node handler span it carried")
	add("cluster.failovers", li.gw["repro_gateway_failovers_total"], "count", 1, "run",
		"repro_gateway_failovers_total over the traced phases (expected 0)")
	add("cluster.create_self_ms", ratio(ms(c.gatewaySelf), float64(c.ops)), "ms", c.ops, "creates",
		"gateway create handler span − its node exchange")
	var lag time.Duration
	for _, l := range li.lags {
		lag += l
	}
	add("cluster.replication_lag_ms", ratio(ms(lag), float64(len(li.lags))), "ms", len(li.lags), "releases",
		"seen ready on the owner → last replica's snapshot install returned")
	add("cluster.replication_bytes_per_row", ratio(li.gw["repro_gateway_replication_bytes_total"], float64(li.replRows)), "B/row", li.replRows, "rows",
		"repro_gateway_replication_bytes_total delta ÷ rows replicated")

	nodeBatchUS := ratio(us(li.nodeBatchTime), float64(li.nodeBatches))
	add("server.batch_us", nodeBatchUS, "us", li.nodeBatches, "node batches", "node handler span per POST /v1/query:batch")
	hitS, hitN := stageDelta(none, li.engine, "engine.cache_hit")
	missS, missN := stageDelta(none, li.engine, "engine.cache_miss")
	lookupUS := ratio((hitS+missS)*1e6, hitN+missN)
	add("server.self_us", nodeBatchUS-lookupUS, "us", li.nodeBatches, "node batches",
		"server.batch_us − engine.lookup_us (exact where nothing is estimated)")
	add("server.create_ms", ratio(ms(c.nodeTotal), float64(c.nodeSpans)), "ms", c.nodeSpans, "creates",
		"node handler span per POST /v1/releases (decode, CSV parse, submit)")

	hits := li.window["repro_engine_cache_hits_total"]
	misses := li.window["repro_engine_cache_misses_total"]
	engBatches := li.window["repro_engine_batches_total"]
	add("engine.units_per_req", ratio(hits+misses, engBatches), "count", int(engBatches), "node batches",
		"(repro_engine_cache_hits_total + _misses_total) ÷ repro_engine_batches_total")
	add("engine.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses), "units",
		"repro_engine_cache_hits_total ÷ (hits + misses)")
	add("engine.lookup_us", lookupUS, "us", int(hitN+missN), "node batches",
		"engine.cache_hit + engine.cache_miss stage sum ÷ count")
	waitS, waitN := stageDelta(none, li.engine, "engine.queue_wait")
	add("engine.queue_wait_us", ratio(waitS*1e6, waitN), "us", int(waitN), "queued units",
		"engine.queue_wait stage sum ÷ count")
	add("release.index_unit_us", ratio(us(li.estTime["burel"]), float64(li.estUnits["burel"])), "us", li.estUnits["burel"], "units",
		"timed in-process Snapshot.EstimateUnchecked on the BUREL release (grid index)")
	add("release.candidates_per_unit", ratio(float64(li.candidates), float64(li.candidateUnits)), "count", li.candidateUnits, "units",
		"ECIndex.Candidates on the same units: ECs verified per unit")
	add("query.scan_unit_us", ratio(us(li.estTime["perturb"]), float64(li.estUnits["perturb"])), "us", li.estUnits["perturb"], "units",
		"timed in-process Snapshot.EstimateUnchecked on the perturbation release (tuple scan + reconstruction)")

	for _, m := range methods {
		add("anon."+m+"_us_per_row", ratio(us(li.anonTime[m]), float64(li.anonRows[m])), "us/row", li.anonRows[m], "rows",
			"timed in-process anon.Anonymize")
	}
	for _, st := range []struct{ metric, stage, what string }{
		{"release.build_ms", "store.build", "store.build stage (anonymize + index)"},
		{"release.encode_ms", "store.snapshot_encode", "store.snapshot_encode stage"},
		{"release.write_ms", "store.snapshot_write", "store.snapshot_write stage (write, fsync, rename, dir sync)"},
	} {
		s, n := stageDelta(none, li.engine, st.stage)
		add(st.metric, ratio(s*1e3, n), "ms", int(n), "stage observations", st.what+" sum ÷ count")
	}
	var open time.Duration
	for _, d := range li.opens {
		open += d
	}
	add("release.open_ms", ratio(ms(open), float64(len(li.opens))), "ms", len(li.opens), "data-dir opens",
		"timed release.OpenNode per data dir")
	add("release.decode_ms", ratio(li.decodeSecs*1e3, float64(li.decodeCount)), "ms", int(li.decodeCount), "snapshots",
		"store.snapshot_decode stage of the re-opened stores (Store.Stages())")
	for _, m := range methods {
		add("release."+m+"_bytes_per_row", ratio(float64(li.snapBytes[m]), float64(li.snapRowCopies[m])), "B/row", li.snapRowCopies[m], "rows × copies",
			"snapshot file bytes ÷ rows they hold")
	}
	add("bench.trace_overhead_pct", li.overheadPct, "%", o.ops, opName,
		"untraced ÷ traced throughput − 1")
}
