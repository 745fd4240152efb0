package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/release"
	"repro/internal/server"
	"repro/pkg/client"
)

const (
	clusterToken = "perfbench-token"
	replication  = 2 // cmd/serve's -replication default
)

var nodeIDs = []string{"n1", "n2", "n3"}

// node is one serve process stand-in: a durable release.Store under a
// server.Server with cmd/serve's defaults, on a loopback listener.
type node struct {
	id, dir, url string
	store        *release.Store
	srv          *server.Server
	hs           *http.Server
	served       chan struct{}
	api          *client.Client // direct, bypassing the gateway
}

// benchCluster is three nodes behind one gateway, all in this process.
type benchCluster struct {
	nodes  []*node
	gw     *cluster.Gateway
	gwHS   *http.Server
	gwDone chan struct{}
	gwURL  string
	gwHC   *http.Client // the gateway's node client; nil selects its default
	hc     *http.Client // the benchmark's own HTTP client
	client *client.Client
	rec    *recorder // nil on an untraced run
}

// serve starts an HTTP server for h on a fresh loopback port.
func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// benchHTTPClient is the transport the benchmark's clients use: its own
// connection pool, sized for the closed-loop clients, so benchmark
// traffic never shares idle connections with the gateway's node pool.
func benchHTTPClient(traced bool) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	var rt http.RoundTripper = tr
	if traced {
		rt = idTransport{base: tr}
	}
	return &http.Client{Transport: rt, Timeout: 2 * time.Minute}
}

// startCluster boots n1–n3 over fresh data directories under root and a
// gateway (R=2, cluster token) in front of them. With rec set, every
// handler and the gateway's node transport are wrapped for tracing.
func startCluster(root string, rec *recorder) (*benchCluster, error) {
	logger := obs.NewLogger(os.Stderr, slog.LevelWarn)
	c := &benchCluster{rec: rec, hc: benchHTTPClient(rec != nil)}
	var members []cluster.Node
	nodeOf := map[string]string{}
	for _, id := range nodeIDs {
		n := &node{id: id, dir: filepath.Join(root, id)}
		store, err := release.OpenNode(n.dir, release.DefaultWorkers, id)
		if err != nil {
			c.close()
			return nil, err
		}
		n.store = store
		srv, err := server.New(store, server.Options{ClusterToken: clusterToken, Logger: logger})
		if err != nil {
			store.Close()
			c.close()
			return nil, err
		}
		n.srv = srv
		var h http.Handler = srv
		if rec != nil {
			h = rec.wrapHandler(spanNode, id, srv)
		}
		if n.hs, n.url, n.served, err = serve(h); err != nil {
			srv.Close()
			store.Close()
			c.close()
			return nil, err
		}
		n.api = client.New(n.url, client.WithHTTPClient(c.hc))
		c.nodes = append(c.nodes, n)
		members = append(members, cluster.Node{ID: id, URL: n.url})
		nodeOf[n.url[len("http://"):]] = id
	}
	opts := cluster.Options{Nodes: members, Replication: replication, Token: clusterToken, Logger: logger}
	if rec != nil {
		// The gateway's default client, with the transport wrapped.
		c.gwHC = &http.Client{Timeout: 60 * time.Second,
			Transport: &nodeTransport{rec: rec, base: http.DefaultTransport, nodeOf: nodeOf}}
		opts.Client = c.gwHC
	}
	gw, err := cluster.New(opts)
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = gw
	var h http.Handler = gw
	if rec != nil {
		h = rec.wrapHandler(spanGateway, "", gw)
	}
	if c.gwHS, c.gwURL, c.gwDone, err = serve(h); err != nil {
		c.close()
		return nil, err
	}
	c.client = client.New(c.gwURL, client.WithHTTPClient(c.hc))
	return c, nil
}

// close stops the gateway, then every node, and waits for their servers.
func (c *benchCluster) close() {
	if c.gwHS != nil {
		_ = c.gwHS.Close()
		<-c.gwDone
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, n := range c.nodes {
		_ = n.hs.Close()
		<-n.served
		n.srv.Close()
		n.store.Close()
	}
	c.hc.CloseIdleConnections()
	if c.gwHC != nil {
		c.gwHC.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// owner returns the node whose ID prefixes a release ID: the node that
// built it.
func (c *benchCluster) owner(id string) *node {
	for _, n := range c.nodes {
		if len(id) > len(n.id) && id[:len(n.id)] == n.id && id[len(n.id)] == '-' {
			return n
		}
	}
	return nil
}

// holders returns the nodes whose store holds a release ready.
func (c *benchCluster) holders(id string) []*node {
	var out []*node
	for _, n := range c.nodes {
		if m, ok := n.store.Get(id); ok && m.Status == release.StatusReady {
			out = append(out, n)
		}
	}
	return out
}

// replicatorPoll is internal/cluster's watch poll: the gateway ships a
// release to its replicas on the first poll tick after the release is
// ready, and the ticks keep the phase of the gateway's start.
const replicatorPoll = 150 * time.Millisecond

// pause idles for phase before a read set-up's first create, so that the
// replicator's poll meets the set-up's builds at that phase; across a
// run's set-ups the phases are spread evenly over the poll period. It
// returns the time idled, which is not set-up work and is left out of
// setup_s. With the phase fixed, setup_s would move in whole 150 ms
// steps whenever a build crossed a tick.
func pause(phase time.Duration) time.Duration {
	start := time.Now()
	time.Sleep(phase)
	return time.Since(start)
}

// pollEvery is the cadence of the benchmark's readiness polls: small
// against a ~20 ms publish, so it does not quantize what it measures.
const pollEvery = 2 * time.Millisecond

// waitReplicated polls the nodes' stores until every release in ids is
// ready on R of them.
func (c *benchCluster) waitReplicated(ctx context.Context, ids []string) error {
	for {
		pending := 0
		for _, id := range ids {
			if len(c.holders(id)) < replication {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %d releases to reach %d replicas: %w", pending, replication, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// scrapeNodes sums the nodes' /metrics expositions.
func (c *benchCluster) scrapeNodes() (exposition, error) {
	var all []exposition
	for _, n := range c.nodes {
		e, err := scrape(c.hc, n.url)
		if err != nil {
			return nil, err
		}
		all = append(all, e)
	}
	return sum(all...), nil
}

// scrapeAll returns the summed node exposition and the gateway's.
func (c *benchCluster) scrapeAll() (nodes, gw exposition, err error) {
	if nodes, err = c.scrapeNodes(); err != nil {
		return nil, nil, err
	}
	gw, err = scrape(c.hc, c.gwURL)
	return nodes, gw, err
}

// fetchSnapshot downloads a release's snapshot from its owner through
// the authenticated replication endpoint and decodes it: the bytes every
// replica of the release serves.
func (c *benchCluster) fetchSnapshot(ctx context.Context, id string) (*release.Snapshot, error) {
	owner := c.owner(id)
	if owner == nil {
		return nil, fmt.Errorf("release %s has no owner node", id)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner.url+"/v1/internal/snapshot/"+id, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+clusterToken)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching snapshot %s from %s: status %d", id, owner.id, resp.StatusCode)
	}
	gotID, _, snapBytes, err := cluster.DecodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("owner %s sent the snapshot of %s for %s", owner.id, gotID, id)
	}
	snap, _, err := release.DecodeSnapshot(snapBytes)
	return snap, err
}
