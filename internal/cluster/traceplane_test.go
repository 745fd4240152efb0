package cluster_test

// Trace-plane acceptance tests: a mid-batch replica failure assembled
// into one cross-node trace document, the trace store's memory bound
// under a request burst, and the rolling cluster load overview.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/anon"
	"repro/internal/cluster"
	"repro/internal/obs/tracestore"
	"repro/internal/server"
	"repro/pkg/api"
	"repro/pkg/client"
)

// flakyProxy fronts one node with a dumb TCP forwarder that can be armed
// to sever the connection of the next batch-query exchange AFTER the
// request reached the node but BEFORE any response byte reaches the
// gateway. From the gateway's side the replica died mid-batch; from the
// node's side the request completed and its trace was committed — the
// exact asymmetry cross-node trace assembly exists to explain. The
// listener itself stays up, so the node is reachable again (for the
// gateway's debug-trace fetch) the moment the severed exchange is over.
type flakyProxy struct {
	backend string
	ln      net.Listener

	mu    sync.Mutex
	armed bool
	conns map[net.Conn]struct{}
}

func newFlakyProxy(t *testing.T, backend string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{backend: backend, ln: ln, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	t.Cleanup(p.shutdown)
	return p
}

func (p *flakyProxy) url() string { return "http://" + p.ln.Addr().String() }

// armSeverOnBatch makes the next proxied batch-query exchange lose its
// response; the arm resets once tripped so exactly one exchange dies.
func (p *flakyProxy) armSeverOnBatch() {
	p.mu.Lock()
	p.armed = true
	p.mu.Unlock()
}

// takeArm consumes the arm if the chunk opens a batch-query request.
func (p *flakyProxy) takeArm(chunk []byte) bool {
	if !bytes.Contains(chunk, []byte("POST /v1/query:batch")) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.armed {
		return false
	}
	p.armed = false
	return true
}

func (p *flakyProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *flakyProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *flakyProxy) shutdown() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

func (p *flakyProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.serve(c)
	}
}

func (p *flakyProxy) serve(client net.Conn) {
	backend, err := net.Dial("tcp", p.backend)
	if err != nil {
		client.Close()
		return
	}
	p.track(client)
	p.track(backend)
	var tripped atomic.Bool
	var once sync.Once
	drop := func() {
		once.Do(func() {
			client.Close()
			backend.Close()
			p.untrack(client)
			p.untrack(backend)
		})
	}
	// Client → backend: forward verbatim so the node always receives the
	// complete request, marking the connection when an armed batch query
	// passes through.
	go func() {
		defer drop()
		buf := make([]byte, 32<<10)
		for {
			n, rerr := client.Read(buf)
			if n > 0 {
				if p.takeArm(buf[:n]) {
					tripped.Store(true)
				}
				if _, werr := backend.Write(buf[:n]); werr != nil {
					return
				}
			}
			if rerr != nil {
				return
			}
		}
	}()
	// Backend → client: a tripped connection dies on the first response
	// byte instead of relaying it.
	defer drop()
	buf := make([]byte, 32<<10)
	for {
		n, rerr := backend.Read(buf)
		if n > 0 {
			if tripped.Load() {
				return
			}
			if _, werr := client.Write(buf[:n]); werr != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}

// subbatchSpanNodes lists the node labels of the gateway.subbatch spans
// in an assembled trace, in offset order.
func subbatchSpanNodes(doc api.TraceResponse) []string {
	var out []string
	for _, sp := range doc.Spans {
		if sp.Stage == "gateway.subbatch" {
			out = append(out, sp.Node)
		}
	}
	return out
}

// originStages collects the span stages contributed by one origin.
func originStages(doc api.TraceResponse, origin string) map[string]bool {
	out := make(map[string]bool)
	for _, sp := range doc.Spans {
		if sp.Origin == origin {
			out[sp.Stage] = true
		}
	}
	return out
}

// TestTracePlaneFailoverAssembly is the trace-plane acceptance test: a
// batch query whose first-dispatch replica dies mid-batch (request
// delivered, response severed) yields ONE edge-minted request ID whose
// assembled GET /v1/debug/traces/{id} document carries the gateway's
// spans — sub-batch attempts against BOTH replicas — plus the node-local
// spans of BOTH replicas, in offset order, even though one replica never
// got a byte back to the gateway.
func TestTracePlaneFailoverAssembly(t *testing.T) {
	keepAll := func(o *server.Options) {
		o.Trace = tracestore.Options{SampleEvery: 1}
	}
	nodes := make([]*testNode, 3)
	proxies := make([]*flakyProxy, 3)
	members := make([]cluster.Node, 3)
	for i := range nodes {
		nodes[i] = &testNode{id: fmt.Sprintf("n%d", i+1), dir: t.TempDir(), srvOpts: keepAll}
		nodes[i].start(t)
		proxies[i] = newFlakyProxy(t, nodes[i].addr)
		members[i] = cluster.Node{ID: nodes[i].id, URL: proxies[i].url()}
	}
	// Probes park for an hour: the severed replica's breaker must still be
	// closed when the traced batch arrives, so the failover happens INSIDE
	// the request and both attempts land in one trace.
	gw, err := cluster.New(cluster.Options{
		Nodes:             members,
		Replication:       2,
		Token:             testToken,
		ProbeInterval:     time.Hour,
		ReconcileInterval: 50 * time.Millisecond,
		Trace:             tracestore.Options{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Close()
		for _, nd := range nodes {
			nd.kill()
		}
	})

	ctx := context.Background()
	gwc := client.New(ts.URL)
	csv, _, qs := censusCSVQs(t, 400, 11, 3, 4)
	rel, err := gwc.CreateRelease(ctx, client.CreateSpec{
		Method: anon.MethodBUREL,
		Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(5)),
		QI:     3, CSV: csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.WaitReady(ctx, rel.ID, 0); err != nil {
		t.Fatal(err)
	}
	waitCondition(t, 15*time.Second, "replication to R=2", func() bool {
		return readyOn(nodes, rel.ID) >= 2
	})

	// Warmup through the trace plane itself: a single-query batch's
	// assembled trace reveals which replica the gateway dispatches to
	// first. Idle replicas tie on load, so the stable placement order
	// makes the next dispatch start at the same node.
	warmID, code := postBatch(t, ts.URL, rel.ID, qs[:1])
	if code != http.StatusOK {
		t.Fatalf("warmup batch: status %d", code)
	}
	var firstNode string
	waitCondition(t, 5*time.Second, "warmup trace with a subbatch span", func() bool {
		doc, err := gwc.GetTrace(ctx, warmID)
		if err != nil {
			return false
		}
		if ns := subbatchSpanNodes(doc); len(ns) > 0 {
			firstNode = ns[0]
			return true
		}
		return false
	})
	var firstProxy *flakyProxy
	for i, nd := range nodes {
		if nd.id == firstNode {
			firstProxy = proxies[i]
		}
	}
	if firstProxy == nil {
		t.Fatalf("first-dispatch node %q is not a cluster member", firstNode)
	}

	// Sever the first-dispatch replica's next batch exchange mid-flight
	// and run the batch that has to fail over.
	firstProxy.armSeverOnBatch()
	rid, code := postBatch(t, ts.URL, rel.ID, qs)
	if code != http.StatusOK {
		t.Fatalf("failover batch: status %d", code)
	}
	if len(rid) != 32 || rid == warmID {
		t.Fatalf("edge request ID %q is not a fresh 32-hex trace ID", rid)
	}

	// The assembled document needs the gateway part plus both replicas'
	// node parts; node commits race the batch response, so poll.
	var doc api.TraceResponse
	var survivor string
	waitCondition(t, 10*time.Second, "assembled trace with both replicas' spans", func() bool {
		var err error
		doc, err = gwc.GetTrace(ctx, rid)
		if err != nil {
			return false
		}
		attempts := subbatchSpanNodes(doc)
		if len(attempts) < 2 {
			return false
		}
		survivor = ""
		for _, n := range attempts {
			if n != firstNode {
				survivor = n
			}
		}
		if survivor == "" {
			return false
		}
		return originStages(doc, firstNode)["node.batch_query"] &&
			originStages(doc, survivor)["node.batch_query"]
	})

	if doc.RequestID != rid {
		t.Errorf("assembled trace ID = %q, want %q", doc.RequestID, rid)
	}
	if doc.Route != "batch_query" || doc.Status != http.StatusOK {
		t.Errorf("assembled trace route/status = %q/%d, want batch_query/200", doc.Route, doc.Status)
	}
	if len(doc.Origins) < 3 || doc.Origins[0] != "gateway" {
		t.Errorf("origins = %v, want gateway first plus both replicas", doc.Origins)
	}
	// The two chunks dispatch concurrently, so offset order interleaves
	// them; assert composition, not scheduling: the severed node was
	// attempted, the survivor answered, and the failover added a third
	// attempt on top of the two-chunk fan-out.
	attempts := subbatchSpanNodes(doc)
	counts := make(map[string]int)
	for _, n := range attempts {
		counts[n]++
	}
	if counts[firstNode] == 0 || counts[survivor] == 0 || len(attempts) < 3 {
		t.Errorf("sub-batch attempts %v, want the severed node %q plus ≥2 against the survivor %q", attempts, firstNode, survivor)
	}
	// The severed replica processed the request to completion: its part
	// contributes engine-stage spans even though the gateway never saw
	// its answer.
	for _, origin := range []string{firstNode, survivor} {
		stages := originStages(doc, origin)
		for _, want := range []string{"node.batch_query", "engine.estimate"} {
			if !stages[want] {
				t.Errorf("replica %q contributed no %q span (stages %v)", origin, want, stages)
			}
		}
	}
	prev := int64(-1)
	for _, sp := range doc.Spans {
		if sp.OffsetMicros < prev {
			t.Fatalf("assembled spans not in offset order: %+v", doc.Spans)
		}
		prev = sp.OffsetMicros
	}
	// The non-replica member retained nothing; it must not appear.
	for _, origin := range doc.Origins {
		if origin != "gateway" && origin != firstNode && origin != survivor {
			t.Errorf("unexpected origin %q in assembled trace (origins %v)", origin, doc.Origins)
		}
	}
}

// TestTraceStoreBoundedUnderBurst holds the gateway trace store to its
// memory bound under a burst: the ring never exceeds capacity,
// sampled-out requests answer 404, and error traces stay retrievable.
func TestTraceStoreBoundedUnderBurst(t *testing.T) {
	node := &testNode{id: "n1", dir: t.TempDir()}
	node.start(t)
	t.Cleanup(node.kill)
	gw, err := cluster.New(cluster.Options{
		Nodes:             []cluster.Node{{ID: node.id, URL: node.url()}},
		Replication:       1,
		Token:             testToken,
		ProbeInterval:     time.Hour,
		ReconcileInterval: time.Hour,
		// An hour-long slow threshold keeps a pokey CI machine from
		// promoting "normal" burst requests into always-retained slow ones.
		Trace: tracestore.Options{Capacity: 16, SampleEvery: 2, SlowThreshold: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() { ts.Close(); gw.Close() })

	// The node's 1-in-N sampler always keeps its first commit. Spend it on
	// a direct probe so the node never holds request #1, which the gateway
	// would otherwise assemble from the node's part — a race with the
	// gateway's own startup probe.
	if resp, err := httpGet(node.url() + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	ctx := context.Background()
	gwc := client.New(ts.URL)
	const burst = 200
	ids := make([]string, burst)
	for i := range ids {
		resp, err := httpGet(ts.URL + "/v1/releases")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, resp.StatusCode)
		}
		ids[i] = resp.Header.Get(api.HeaderRequestID)
	}

	// Request #199 was sampled in (odd commit at SampleEvery=2) and is
	// recent enough to have survived eviction.
	waitCondition(t, 5*time.Second, "late sampled-in trace to land", func() bool {
		doc, err := gwc.GetTrace(ctx, ids[198])
		return err == nil && doc.Retained == tracestore.ReasonSampled
	})
	// Request #2 was sampled out — never stored.
	if _, err := gwc.GetTrace(ctx, ids[1]); !client.IsNotFound(err) {
		t.Fatalf("sampled-out trace: err = %v, want not-found", err)
	}
	// Request #1 was sampled in but evicted long ago by the bounded ring.
	if _, err := gwc.GetTrace(ctx, ids[0]); !client.IsNotFound(err) {
		t.Fatalf("evicted trace: err = %v, want not-found", err)
	}

	// An error response is always retained, burst or not.
	resp, err := httpGet(ts.URL + "/v1/releases/nope")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("error request: status %d, want 404", resp.StatusCode)
	}
	errID := resp.Header.Get(api.HeaderRequestID)
	waitCondition(t, 5*time.Second, "error trace to land", func() bool {
		doc, err := gwc.GetTrace(ctx, errID)
		return err == nil && doc.Retained == tracestore.ReasonError && doc.Status == http.StatusNotFound
	})

	// The exposition agrees: retention pinned at capacity, eviction doing
	// the bounding.
	mresp, err := httpGet(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	expo, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(expo, []byte("repro_gateway_tracestore_retained 16")) {
		t.Errorf("gateway /metrics does not show the store pinned at capacity 16")
	}
	m := regexp.MustCompile(`repro_gateway_tracestore_evicted_total (\d+)`).FindSubmatch(expo)
	if m == nil {
		t.Fatal("gateway /metrics has no eviction counter")
	}
	evicted, _ := strconv.Atoi(string(m[1]))
	if evicted < 84 { // 100 sampled-in commits - 16 slots, before the debug fetches
		t.Errorf("evicted = %d, want ≥ 84 after a %d-request burst", evicted, burst)
	}
}

// TestClusterOverviewAggregates drives light load through a 3-node
// cluster and asserts GET /v1/cluster/overview assembles the gateway's
// own rolling load series plus one live series per member.
func TestClusterOverviewAggregates(t *testing.T) {
	fastSampling := func(o *server.Options) { o.LoadSampleInterval = 10 * time.Millisecond }
	nodes := make([]*testNode, 3)
	members := make([]cluster.Node, 3)
	for i := range nodes {
		nodes[i] = &testNode{id: fmt.Sprintf("n%d", i+1), dir: t.TempDir(), srvOpts: fastSampling}
		nodes[i].start(t)
		members[i] = cluster.Node{ID: nodes[i].id, URL: nodes[i].url()}
	}
	gw, err := cluster.New(cluster.Options{
		Nodes:              members,
		Replication:        2,
		Token:              testToken,
		ProbeInterval:      25 * time.Millisecond,
		ReconcileInterval:  50 * time.Millisecond,
		LoadSampleInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(func() {
		ts.Close()
		gw.Close()
		for _, nd := range nodes {
			nd.kill()
		}
	})

	ctx := context.Background()
	gwc := client.New(ts.URL)
	csv, _, qs := censusCSVQs(t, 300, 23, 3, 6)
	rel, err := gwc.CreateRelease(ctx, client.CreateSpec{
		Method: anon.MethodBUREL,
		Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(5)),
		QI:     3, CSV: csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.WaitReady(ctx, rel.ID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := gwc.QueryBatch(ctx, rel.ID, qs); err != nil {
		t.Fatal(err)
	}

	var ov api.ClusterOverviewResponse
	waitCondition(t, 10*time.Second, "overview with live series from every member", func() bool {
		var err error
		ov, err = gwc.ClusterOverview(ctx)
		if err != nil || len(ov.Gateway.Samples) == 0 || len(ov.Nodes) != 3 {
			return false
		}
		for _, n := range ov.Nodes {
			if !n.Alive || n.Error != "" || n.Load == nil || len(n.Load.Samples) == 0 {
				return false
			}
		}
		// The gateway served real traffic: once a tick lands after it,
		// lifetime latency quantiles are nonzero.
		return ov.Gateway.Samples[len(ov.Gateway.Samples)-1].P50Millis > 0
	})

	if ov.Replication != 2 {
		t.Errorf("overview replication = %d, want 2", ov.Replication)
	}
	if ov.Gateway.Origin != "gateway" {
		t.Errorf("gateway series origin = %q", ov.Gateway.Origin)
	}
	seen := make(map[string]bool)
	for _, n := range ov.Nodes {
		seen[n.ID] = true
		if n.Load.Origin != n.ID {
			t.Errorf("node %s series origin = %q", n.ID, n.Load.Origin)
		}
		last := n.Load.Samples[len(n.Load.Samples)-1]
		if last.UnixMillis == 0 || last.Goroutines <= 0 || last.HeapBytes == 0 {
			t.Errorf("node %s last sample implausible: %+v", n.ID, last)
		}
		if last.QueueDepth < 0 || last.Inflight < 0 {
			t.Errorf("node %s negative saturation gauges: %+v", n.ID, last)
		}
	}
	for _, nd := range nodes {
		if !seen[nd.id] {
			t.Errorf("overview is missing node %s", nd.id)
		}
	}
}
