// Command serve runs the anonymization/query HTTP service: upload a CSV
// with anonymization parameters, poll the release as a worker pool builds
// it, then issue COUNT(*) estimates — singly or in batches through
// POST /v1/query:batch — answered by the batch engine over the
// per-release EC index with a sharded result cache. See README.md for
// the API with curl examples.
//
// With -data-dir the store is durable: ready releases persist as
// checksummed snapshot files plus an append-only manifest, and a restart
// against the same directory recovers every release — serving identical
// query answers with zero re-anonymization.
//
// With -node-id and -cluster-token the process is a cluster node: its
// release IDs are node-prefixed (globally unique across the cluster) and
// the authenticated internal snapshot-replication endpoints are enabled.
//
// With -gateway the process is instead a cluster front end: it serves
// the same /v1 API by proxying over the nodes listed in -nodes,
// replicating ready snapshots to -replication nodes and scattering
// batch queries across live replicas. Node usage:
//
//	serve [-addr :8080] [-workers N] [-max-body-mb M] [-data-dir DIR]
//	      [-query-workers N] [-cache-capacity N] [-max-batch N]
//	      [-node-id n1] [-cluster-token TOK]
//	      [-log-level info] [-slow-query-ms 0]
//	      [-trace-capacity N] [-trace-sample N] [-trace-slow-ms MS]
//
// Gateway usage:
//
//	serve -gateway -nodes n1=http://h1:8080,n2=http://h2:8080,... \
//	      [-addr :8090] [-replication 2] [-cluster-token TOK] \
//	      [-probe-interval 2s] [-reconcile-interval 15s] [-max-body-mb M] \
//	      [-log-level info] [-slow-query-ms 0] \
//	      [-trace-capacity N] [-trace-sample N] [-trace-slow-ms MS]
//
// Both roles emit structured JSON logs (log/slog) on stderr at
// -log-level, echo an X-Request-Id header on every response, and — with
// -slow-query-ms > 0 — log the full per-stage span breakdown of any
// request slower than the threshold, keyed by that request ID.
//
// Both roles also retain finished traces in a bounded in-memory ring
// (tail-sampled: errors and slow requests always, normal traffic 1 in
// -trace-sample), served back on GET /v1/debug/traces/{id} — against a
// gateway, assembled cluster-wide from every node that touched the
// request. cmd/tracecat pretty-prints them; a gateway additionally
// serves the rolling per-process load overview on
// GET /v1/cluster/overview.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/tracestore"
	"repro/internal/release"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", release.DefaultWorkers, "concurrent anonymization builds")
	evalWorkers := flag.Int("eval-workers", 0, "concurrent evaluation jobs (0 = default)")
	maxBodyMB := flag.Int64("max-body-mb", 256, "request body limit in MiB")
	queryWorkers := flag.Int("query-workers", 0, "query engine pool size (0 = GOMAXPROCS)")
	cacheCapacity := flag.Int("cache-capacity", 0, "result cache entries (0 = default, negative = disabled)")
	maxBatch := flag.Int("max-batch", 0, "max queries per batch request (0 = default)")
	dataDir := flag.String("data-dir", "", "persist releases to this directory and recover them on restart (empty = memory-only)")
	nodeID := flag.String("node-id", "", "cluster node identity; prefixes minted release IDs (empty = single-node)")
	clusterToken := flag.String("cluster-token", "", "shared secret for the internal snapshot-replication endpoints")
	gateway := flag.Bool("gateway", false, "run as a cluster gateway over -nodes instead of a serving node")
	nodes := flag.String("nodes", "", "gateway mode: comma-separated id=url cluster members")
	replication := flag.Int("replication", 2, "gateway mode: replicas per release (R)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "gateway mode: /healthz probing cadence")
	reconcileInterval := flag.Duration("reconcile-interval", 15*time.Second, "gateway mode: replication reconcile cadence")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	slowQueryMS := flag.Int64("slow-query-ms", 0, "log the full span breakdown of any request slower than this (0 = disabled)")
	traceCapacity := flag.Int("trace-capacity", 0, "retained traces kept in memory (0 = default)")
	traceSample := flag.Int("trace-sample", 0, "keep 1 in N normal traces; error and slow traces are always kept (0 = default)")
	traceSlowMS := flag.Int64("trace-slow-ms", 0, "always retain traces slower than this (0 = follow -slow-query-ms, else default)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)
	slog.SetDefault(logger)
	slowQuery := time.Duration(*slowQueryMS) * time.Millisecond
	traceOpts := tracestore.Options{
		Capacity:      *traceCapacity,
		SampleEvery:   *traceSample,
		SlowThreshold: time.Duration(*traceSlowMS) * time.Millisecond,
	}

	if *gateway {
		runGateway(*addr, *nodes, *replication, *clusterToken, *probeInterval, *reconcileInterval, *maxBodyMB<<20, logger, slowQuery, traceOpts)
		return
	}

	var store *release.Store
	if *dataDir != "" {
		if store, err = release.OpenNode(*dataDir, *workers, *nodeID); err != nil {
			fmt.Fprintf(os.Stderr, "serve: opening data dir: %v\n", err)
			os.Exit(1)
		}
		rec := store.Recovery()
		fmt.Fprintf(os.Stderr, "serve: data dir %s: recovered %d ready, %d failed, %d interrupted, %d corrupt (%d bytes on disk)\n",
			*dataDir, rec.Ready, rec.Failed, rec.Interrupted, rec.Corrupt, store.DiskSize())
	} else {
		if store, err = release.NewStoreNode(*workers, *nodeID); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	}
	api, err := server.New(store, server.Options{
		MaxBodyBytes: *maxBodyMB << 20,
		ClusterToken: *clusterToken,
		Logger:       logger,
		SlowQuery:    slowQuery,
		Trace:        traceOpts,
		EvalWorkers:  *evalWorkers,
		Engine: engine.Options{
			Workers:       *queryWorkers,
			CacheCapacity: *cacheCapacity,
			MaxBatch:      *maxBatch,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	durability := "memory-only"
	if store.Durable() {
		durability = "durable: " + store.Dir()
	}
	role := ""
	if *nodeID != "" {
		role = fmt.Sprintf(", node %s", *nodeID)
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (%d build workers, %s%s)\n", *addr, *workers, durability, role)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "serve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "serve: shutdown: %v\n", err)
		}
		api.Close()
		store.Close()
	}
}

// parseNodes decodes the -nodes flag: comma-separated id=url pairs.
func parseNodes(spec string) ([]cluster.Node, error) {
	var out []cluster.Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("node %q is not id=url", part)
		}
		out = append(out, cluster.Node{ID: id, URL: strings.TrimRight(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-gateway needs -nodes id=url,...")
	}
	return out, nil
}

// runGateway serves the cluster gateway until interrupted.
func runGateway(addr, nodesSpec string, replication int, token string, probe, reconcile time.Duration, maxBody int64, logger *slog.Logger, slowQuery time.Duration, traceOpts tracestore.Options) {
	members, err := parseNodes(nodesSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	gw, err := cluster.New(cluster.Options{
		Nodes:             members,
		Replication:       replication,
		Token:             token,
		ProbeInterval:     probe,
		ReconcileInterval: reconcile,
		MaxBodyBytes:      maxBody,
		Logger:            logger,
		SlowQuery:         slowQuery,
		Trace:             traceOpts,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           gw,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	repl := "replication enabled"
	if token == "" {
		repl = "replication DISABLED (no -cluster-token)"
	}
	fmt.Fprintf(os.Stderr, "serve: gateway listening on %s over %d nodes (R=%d, %s)\n",
		addr, len(members), gw.Replication(), repl)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "serve: gateway shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "serve: shutdown: %v\n", err)
		}
		gw.Close()
	}
}
