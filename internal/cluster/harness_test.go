package cluster_test

// Shared 3-node cluster harness: real release stores on real data
// directories behind real TCP listeners, so nodes can be killed and
// reincarnated on the same address — the shape a deploy has, scaled down.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/release"
	"repro/internal/server"
)

// syncBuffer is a concurrency-safe log sink: slog handlers write from
// request goroutines while tests read.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// jsonDecode drains and decodes one response body.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// httpGet is http.Get without the package-name collision in tests that
// shadow http-ish identifiers.
func httpGet(url string) (*http.Response, error) { return http.Get(url) }

const testToken = "cluster-test-token"

// testNode is one serve process stand-in that can die and come back on
// the same address and data directory.
type testNode struct {
	id   string
	dir  string
	addr string // fixed after first start so restarts keep the URL

	// logBuf, when set, captures the node's structured JSON logs at Debug
	// with the slow-query log catching every request.
	logBuf *syncBuffer

	// srvOpts, when set, adjusts the node's server options after the
	// harness defaults (cluster token, logging) are applied — e.g. trace
	// retention or load-sampling cadences a test needs pinned.
	srvOpts func(*server.Options)

	store *release.Store
	srv   *server.Server
	hs    *http.Server
	ln    net.Listener
}

func (n *testNode) url() string { return "http://" + n.addr }

// start opens the store over the node's directory and begins serving.
func (n *testNode) start(t *testing.T) {
	t.Helper()
	store, err := release.OpenNode(n.dir, 2, n.id)
	if err != nil {
		t.Fatalf("node %s: %v", n.id, err)
	}
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		store.Close()
		t.Fatalf("node %s: %v", n.id, err)
	}
	n.store = store
	opts := server.Options{ClusterToken: testToken}
	if n.logBuf != nil {
		opts.Logger = obs.NewLogger(n.logBuf, slog.LevelDebug)
		opts.SlowQuery = time.Nanosecond
	}
	if n.srvOpts != nil {
		n.srvOpts(&opts)
	}
	srv, err := server.New(store, opts)
	if err != nil {
		store.Close()
		t.Fatalf("node %s: %v", n.id, err)
	}
	n.srv = srv
	n.hs = &http.Server{Handler: n.srv}
	n.ln = ln
	n.addr = ln.Addr().String()
	go n.hs.Serve(ln) //nolint:errcheck // Serve returns on Close
}

// kill tears the node down hard-ish: connections die immediately, the
// store flushes and releases its directory lock so a restart can take
// over.
func (n *testNode) kill() {
	if n.hs == nil {
		return
	}
	n.hs.Close()
	n.srv.Close()
	n.store.Close()
	n.hs, n.srv, n.store, n.ln = nil, nil, nil, nil
}

// startCluster brings up n nodes and a gateway over them with fast
// probe/reconcile cadences suited to tests.
func startCluster(t *testing.T, n, replication int) ([]*testNode, *cluster.Gateway, *httptest.Server) {
	t.Helper()
	nodes := make([]*testNode, n)
	members := make([]cluster.Node, n)
	for i := range nodes {
		nodes[i] = &testNode{id: fmt.Sprintf("n%d", i+1), dir: t.TempDir()}
		nodes[i].start(t)
		members[i] = cluster.Node{ID: nodes[i].id, URL: nodes[i].url()}
	}
	gw, err := cluster.New(cluster.Options{
		Nodes:             members,
		Replication:       replication,
		Token:             testToken,
		ProbeInterval:     25 * time.Millisecond,
		ReconcileInterval: 50 * time.Millisecond,
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
	return nodes, gw, ts
}

// waitCondition polls until ok or the deadline, failing the test with
// what on timeout.
func waitCondition(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if ok() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// exposedFamilies maps every # TYPE family of a text exposition to its
// type and the sorted label names its samples carry ("le" excluded), as
// "type(label,label)".
func exposedFamilies(body string) map[string]string {
	types := make(map[string]string)
	labels := make(map[string]map[string]bool)
	labelName := regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)
	for _, line := range strings.Split(body, "\n") {
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(decl, " ")
			types[name], labels[name] = typ, make(map[string]bool)
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		end := strings.IndexAny(line, "{ ")
		family := line[:end]
		if _, ok := types[family]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				family = strings.TrimSuffix(family, suffix)
			}
		}
		if set, ok := labels[family]; ok && line[end] == '{' {
			for _, m := range labelName.FindAllStringSubmatch(line[:strings.IndexByte(line, '}')], -1) {
				if m[1] != "le" {
					set[m[1]] = true
				}
			}
		}
	}
	out := make(map[string]string, len(types))
	for name, typ := range types {
		names := make([]string, 0, len(labels[name]))
		for l := range labels[name] {
			names = append(names, l)
		}
		sort.Strings(names)
		out[name] = typ + "(" + strings.Join(names, ",") + ")"
	}
	return out
}
