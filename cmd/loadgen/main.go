// Command loadgen drives query traffic against a running serve instance
// and reports throughput plus request-latency percentiles (p50, p95,
// p99, max) per endpoint, so both the batch endpoint's speedup over
// single-query round-trips and the tail behavior under load are
// measurable from the command line. With -json the same numbers are
// written as a machine-readable report.
//
// It is built entirely on the typed Go SDK (repro/pkg/client): releases
// are created with typed anon params, the build is awaited through
// WaitReady, and the workers post batches through QueryBatch (or single
// queries through Query with -single), with the SDK's bounded
// 503/Retry-After retry absorbing the pending window.
//
// It generates a pool of distinct queries of the paper's §6 workload
// shape (λ QI predicates, expected selectivity θ) and replays them
// Zipf-distributed — the skewed repetition real dashboards exhibit and
// the result cache exploits — from a set of concurrent workers. The
// -agg flag mixes aggregate shapes into the pool round-robin: "count"
// (the default), "sum"/"avg"/"min"/"max" over the SA, and "groupby"
// (GROUP BY over a predicate-free QI dimension with SUM), so the
// aggregate and group-expansion paths are exercised under load.
//
// Usage:
//
//	loadgen [-addr http://localhost:8080] [-release r-000001]
//	        [-rows 20000] [-beta 4] [-qi 3] [-seed 1]
//	        [-queries 10000] [-batch 64] [-concurrency 8] [-single]
//	        [-lambda 2] [-theta 0.05] [-distinct 1024] [-zipf-s 1.2]
//	        [-agg count,sum,groupby] [-slowest 5] [-json report.json]
//
// Every response's X-Request-Id is tracked, and the -slowest N requests
// per endpoint are reported with their IDs — each pastes straight into
// cmd/tracecat (or GET /v1/debug/traces/{id}) to see where the time
// went, server-side, span by span.
//
// -addr accepts a comma-separated endpoint list; workers are assigned
// round-robin across the endpoints and throughput is reported both in
// total and per endpoint, so a gateway-vs-direct-nodes comparison is one
// command:
//
//	loadgen -addr http://gw:8090 -release n1-r-000001 ...
//	loadgen -addr http://n1:8080,http://n2:8080 -release n1-r-000001 ...
//
// Without -release it uploads a generated CENSUS table first (through
// the first endpoint) and waits for the build. The query generator
// assumes the release uses the CENSUS schema projected to -qi
// attributes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/microdata"
	"repro/internal/query"
	"repro/pkg/api"
	"repro/pkg/client"
)

func toAPI(q query.Query) api.Query {
	return api.Query{
		Dims: q.Dims, Lo: q.Lo, Hi: q.Hi, SALo: q.SALo, SAHi: q.SAHi,
		Agg: string(q.Agg), GroupBy: q.GroupBy, GroupBuckets: q.GroupBuckets,
	}
}

// groupify turns a generated query into a GROUP BY + SUM query over one
// QI dimension that carries no predicate; when every dimension does, the
// last predicate is dropped to free its dimension.
func groupify(schema *microdata.Schema, q query.Query) query.Query {
	used := make(map[int]bool, len(q.Dims))
	for _, d := range q.Dims {
		used[d] = true
	}
	free := -1
	for d := range schema.QI {
		if !used[d] {
			free = d
			break
		}
	}
	if free == -1 {
		free = q.Dims[len(q.Dims)-1]
		q.Dims = q.Dims[:len(q.Dims)-1]
		q.Lo = q.Lo[:len(q.Lo)-1]
		q.Hi = q.Hi[:len(q.Hi)-1]
	}
	q.Agg = query.AggSum
	q.GroupBy = []int{free}
	return q
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "server base URL(s), comma-separated; workers round-robin across them")
	releaseID := flag.String("release", "", "release ID to query (empty: upload a generated table first)")
	rows := flag.Int("rows", 20000, "rows of the generated table (with empty -release)")
	beta := flag.Float64("beta", 4, "β of the generated release")
	qi := flag.Int("qi", 3, "QI attributes of the release's schema")
	seed := flag.Int64("seed", 1, "workload seed")
	queries := flag.Int("queries", 10000, "total queries to issue")
	batch := flag.Int("batch", 64, "queries per batch request")
	concurrency := flag.Int("concurrency", 8, "concurrent workers")
	single := flag.Bool("single", false, "use the single-query endpoint instead of /v1/query:batch")
	lambda := flag.Int("lambda", 2, "QI predicates per query (λ)")
	theta := flag.Float64("theta", 0.05, "expected query selectivity (θ)")
	distinct := flag.Int("distinct", 1024, "distinct queries in the replay pool")
	zipfS := flag.Float64("zipf-s", 1.2, "Zipf exponent of query repetition (≤ 1: uniform)")
	aggMix := flag.String("agg", "count", "comma-separated aggregate mix cycled through the query pool: count, sum, avg, min, max, groupby")
	slowest := flag.Int("slowest", 5, "request IDs of the N slowest requests remembered per endpoint (0 = disabled)")
	jsonOut := flag.String("json", "", "also write a machine-readable JSON report to this file")
	flag.Parse()
	if *distinct < 1 || *batch < 1 || *concurrency < 1 || *queries < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -distinct, -batch, -concurrency, and -queries must be ≥ 1")
		os.Exit(2)
	}
	var mix []string
	for _, kind := range strings.Split(*aggMix, ",") {
		switch kind = strings.TrimSpace(kind); kind {
		case "count", "sum", "avg", "min", "max", "groupby":
			mix = append(mix, kind)
		case "":
		default:
			fmt.Fprintf(os.Stderr, "loadgen: -agg entry %q is not one of count, sum, avg, min, max, groupby\n", kind)
			os.Exit(2)
		}
	}
	if len(mix) == 0 {
		mix = []string{"count"}
	}

	var endpoints []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			endpoints = append(endpoints, a)
		}
	}
	if len(endpoints) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -addr names no endpoints")
		os.Exit(2)
	}
	clients := make([]*client.Client, len(endpoints))
	for i, a := range endpoints {
		clients[i] = client.New(a)
	}

	ctx := context.Background()
	schema := census.Schema().Project(*qi)

	id := *releaseID
	if id == "" {
		var err error
		if id, err = uploadRelease(ctx, clients[0], *rows, *beta, *qi, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("release %s ready\n", id)
	}

	gen, err := query.NewGenerator(schema, *lambda, *theta, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	pool := make([]api.Query, *distinct)
	for i := range pool {
		q := gen.Next()
		switch kind := mix[i%len(mix)]; kind {
		case "count":
		case "groupby":
			q = groupify(schema, q)
		default:
			q.Agg = query.Aggregate(kind)
		}
		pool[i] = toAPI(q)
	}

	// Per-endpoint tallies, indexed like endpoints; workers write only
	// their endpoint's slot through atomics. Each worker keeps its own
	// request round-trip times in rtts[w], merged once the run is over.
	type endpointStats struct {
		done   atomic.Int64 // queries completed
		hits   atomic.Int64
		failed atomic.Int64
		slow   slowTracker // slowest requests, by server request ID
	}
	var (
		issued    atomic.Int64 // queries claimed by workers
		wg        sync.WaitGroup
		stats     = make([]endpointStats, len(endpoints))
		rtts      = make([][]time.Duration, *concurrency)
		batchSize = *batch
	)
	if *single {
		batchSize = 1
	}
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep := w % len(endpoints)
			c, st := clients[ep], &stats[ep]
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			var zipf *rand.Zipf
			if *zipfS > 1 {
				zipf = rand.NewZipf(rng, *zipfS, 1, uint64(len(pool)-1))
			}
			pick := func() api.Query {
				if zipf != nil {
					return pool[zipf.Uint64()]
				}
				return pool[rng.Intn(len(pool))]
			}
			for {
				n := int64(batchSize)
				if claimed := issued.Add(n); claimed > int64(*queries) {
					over := claimed - int64(*queries)
					if n -= over; n <= 0 {
						return
					}
				}
				qs := make([]api.Query, n)
				for i := range qs {
					qs[i] = pick()
				}
				t0 := time.Now()
				h, reqID, err := post(ctx, c, id, qs, *single)
				rtt := time.Since(t0)
				rtts[w] = append(rtts[w], rtt)
				st.slow.note(reqID, rtt, *slowest)
				if err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: worker %d (%s): %v\n", w, endpoints[ep], err)
					st.failed.Add(n)
					continue
				}
				st.done.Add(n)
				st.hits.Add(int64(h))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var done, hits, failed int64
	for i := range stats {
		done += stats[i].done.Load()
		hits += stats[i].hits.Load()
		failed += stats[i].failed.Load()
	}
	// Worker w drove endpoint w % len(endpoints).
	epLat := make([]latencies, len(endpoints))
	for i := range endpoints {
		var parts [][]time.Duration
		for w := i; w < len(rtts); w += len(endpoints) {
			parts = append(parts, rtts[w])
		}
		epLat[i] = mergeLatencies(parts...)
	}
	overall := mergeLatencies(rtts...)
	requests := int64(len(overall))
	qps := float64(done) / elapsed.Seconds()
	fmt.Printf("queries:      %d (%d failed)\n", done, failed)
	fmt.Printf("elapsed:      %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("throughput:   %.0f queries/sec\n", qps)
	if requests > 0 {
		fmt.Printf("requests:     %d (batch size %d, avg latency %v)\n",
			requests, batchSize, overall.mean().Round(time.Microsecond))
		fmt.Printf("latency:      %s\n", overall.line())
	}
	if done > 0 {
		fmt.Printf("cache hits:   %d (%.1f%%)\n", hits, 100*float64(hits)/float64(done))
	}
	if len(endpoints) > 1 {
		for i, a := range endpoints {
			st := &stats[i]
			n := st.done.Load()
			fmt.Printf("endpoint %-32s %8.0f q/s  (%d queries, %d failed, %s)\n",
				a+":", float64(n)/elapsed.Seconds(), n, st.failed.Load(), epLat[i].line())
		}
	}
	if *slowest > 0 {
		for i, a := range endpoints {
			for _, sr := range stats[i].slow.list() {
				fmt.Printf("slowest %-32s %8.1fms  %s\n", a+":", sr.Millis, sr.RequestID)
			}
		}
	}
	if *jsonOut != "" {
		rep := report{
			Benchmark: "loadgen",
			Meta:      reportMeta{GeneratedAt: time.Now().UTC().Format(time.RFC3339)},
			Config: reportConfig{
				Endpoints: endpoints, ReleaseID: id, Queries: *queries,
				Batch: batchSize, Concurrency: *concurrency, Single: *single,
				Lambda: *lambda, Theta: *theta, Distinct: *distinct, ZipfS: *zipfS, Seed: *seed,
				Agg: strings.Join(mix, ","),
			},
			ElapsedSeconds: elapsed.Seconds(),
			Queries:        done, Failed: failed, Requests: requests,
			ThroughputQPS: qps, CacheHits: hits,
			Latency: overall.report(),
		}
		for i, a := range endpoints {
			st := &stats[i]
			rep.Endpoints = append(rep.Endpoints, endpointReport{
				Addr: a, Queries: st.done.Load(), Failed: st.failed.Load(),
				Requests: int64(len(epLat[i])),
				QPS:      float64(st.done.Load()) / elapsed.Seconds(),
				Latency:  epLat[i].report(),
				Slowest:  st.slow.list(),
			})
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("report:       %s\n", *jsonOut)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// report is the -json output: the run's configuration, throughput, and
// request-latency percentiles, overall and per endpoint.
type report struct {
	Benchmark      string           `json:"benchmark"`
	Meta           reportMeta       `json:"meta"`
	Config         reportConfig     `json:"config"`
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	Queries        int64            `json:"queries"`
	Failed         int64            `json:"failed"`
	Requests       int64            `json:"requests"`
	ThroughputQPS  float64          `json:"throughput_qps"`
	CacheHits      int64            `json:"cache_hits"`
	Latency        latencyReport    `json:"latency_ms"`
	Endpoints      []endpointReport `json:"endpoints"`
}

// reportMeta is run provenance, quarantined under one key so report
// consumers can compare the measurement fields structurally and drop
// "meta" wholesale instead of special-casing each timestamp-shaped field.
type reportMeta struct {
	GeneratedAt string `json:"generated_at"`
}

type reportConfig struct {
	Endpoints   []string `json:"endpoints"`
	ReleaseID   string   `json:"release_id"`
	Queries     int      `json:"queries"`
	Batch       int      `json:"batch"`
	Concurrency int      `json:"concurrency"`
	Single      bool     `json:"single"`
	Lambda      int      `json:"lambda"`
	Theta       float64  `json:"theta"`
	Distinct    int      `json:"distinct"`
	ZipfS       float64  `json:"zipf_s"`
	Seed        int64    `json:"seed"`
	Agg         string   `json:"agg,omitempty"`
}

// latencyReport carries request round-trip times in milliseconds, all
// exact: the percentiles are nearest-rank over every request's sample.
type latencyReport struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// endpointReport carries one endpoint's share of the run. Slowest lists
// the N slowest requests by server request ID, slowest first — each ID
// pastes straight into `tracecat` or GET /v1/debug/traces/{id} (slow
// traces above the server's threshold are always retained).
type endpointReport struct {
	Addr     string        `json:"addr"`
	Queries  int64         `json:"queries"`
	Failed   int64         `json:"failed"`
	Requests int64         `json:"requests"`
	QPS      float64       `json:"qps"`
	Latency  latencyReport `json:"latency_ms"`
	Slowest  []slowRequest `json:"slowest,omitempty"`
}

// latencies is a set of request round-trip times, sorted ascending.
type latencies []time.Duration

// mergeLatencies joins per-worker samples into one sorted set.
func mergeLatencies(parts ...[]time.Duration) latencies {
	l := latencies(slices.Concat(parts...))
	slices.Sort(l)
	return l
}

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least q of all samples at or below it, so it is always a sample and
// never above the max. Zero for an empty set.
func (l latencies) quantile(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	return l[max(int(math.Ceil(q*float64(len(l)))), 1)-1]
}

func (l latencies) mean() time.Duration {
	if len(l) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l {
		sum += d
	}
	return sum / time.Duration(len(l))
}

func (l latencies) report() latencyReport {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return latencyReport{
		Mean: ms(l.mean()),
		P50:  ms(l.quantile(0.50)),
		P95:  ms(l.quantile(0.95)),
		P99:  ms(l.quantile(0.99)),
		Max:  ms(l.quantile(1)),
	}
}

// line renders the percentile summary for the human-readable report.
func (l latencies) line() string {
	q := func(p float64) time.Duration { return l.quantile(p).Round(time.Microsecond) }
	return fmt.Sprintf("p50 %v  p95 %v  p99 %v  max %v", q(0.50), q(0.95), q(0.99), q(1))
}

// uploadRelease generates a CENSUS table, submits a generalized release
// through the SDK, and waits until it is ready.
func uploadRelease(ctx context.Context, c *client.Client, rows int, beta float64, qi int, seed int64) (string, error) {
	tab := census.Generate(census.Options{N: rows, Seed: seed}).Project(qi)
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		return "", err
	}
	rel, err := c.CreateRelease(ctx, client.CreateSpec{
		Method: anon.MethodBUREL,
		Params: anon.NewBURELParams(anon.BURELBeta(beta), anon.BURELSeed(seed)),
		QI:     qi,
		CSV:    csv.String(),
	})
	if err != nil {
		return "", err
	}
	if rel, err = c.WaitReady(ctx, rel.ID, 0); err != nil {
		return "", err
	}
	return rel.ID, nil
}

// post issues one request — a batch, or a single query when single is
// set — and returns the reported cache-hit count plus the server's
// request ID (also recoverable from a failed request's error envelope:
// a failure is exactly the request worth tracing).
func post(ctx context.Context, c *client.Client, id string, qs []api.Query, single bool) (int, string, error) {
	if single {
		res, err := c.QueryDetailed(ctx, id, qs[0])
		if err != nil {
			return 0, errRequestID(err), err
		}
		hits := 0
		if res.Cached {
			hits = 1
		}
		return hits, res.RequestID, nil
	}
	br, err := c.QueryBatch(ctx, id, qs)
	if err != nil {
		return 0, errRequestID(err), err
	}
	return br.CacheHits, br.RequestID, nil
}

// errRequestID extracts the request ID a failed call's error envelope
// carries, "" for transport-level failures.
func errRequestID(err error) string {
	var ae *client.Error
	if errors.As(err, &ae) {
		return ae.RequestID
	}
	return ""
}

// slowRequest is one remembered slow request: its server-minted ID —
// ready for `tracecat` or GET /v1/debug/traces/{id} — and its
// client-observed round-trip.
type slowRequest struct {
	RequestID string  `json:"request_id"`
	Millis    float64 `json:"ms"`
}

// slowTracker remembers the slowest N requests seen, by round-trip time.
type slowTracker struct {
	mu   sync.Mutex
	reqs []slowRequest
}

// note records one finished request; IDs the server never minted (e.g.
// connection refused) are skipped.
func (t *slowTracker) note(requestID string, rtt time.Duration, n int) {
	if requestID == "" || n <= 0 {
		return
	}
	ms := float64(rtt) / 1e6
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.reqs) >= n && ms <= t.reqs[len(t.reqs)-1].Millis {
		return
	}
	t.reqs = append(t.reqs, slowRequest{RequestID: requestID, Millis: ms})
	sort.Slice(t.reqs, func(i, j int) bool { return t.reqs[i].Millis > t.reqs[j].Millis })
	if len(t.reqs) > n {
		t.reqs = t.reqs[:n]
	}
}

// list returns the remembered requests, slowest first.
func (t *slowTracker) list() []slowRequest {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]slowRequest(nil), t.reqs...)
}
