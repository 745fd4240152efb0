// Package repro is a from-scratch Go reproduction of "Publishing Microdata
// with a Robust Privacy Guarantee" (Cao & Karras, PVLDB 5(11), 2012): the
// β-likeness privacy model, the BUREL generalization algorithm, the
// (ρ1i, ρ2i)-privacy perturbation scheme, and every comparator and
// experiment of the paper's evaluation.
//
// The supported programmatic surface is the top-level anon package (the
// Method registry with typed params over every publication scheme) and
// pkg/client (the typed Go SDK for the HTTP service, with pkg/api as the
// wire contract); the algorithm internals live under internal/. See
// README.md for the package map and the HTTP API, and DESIGN.md for the
// system inventory and the architecture of the public API and the
// release/serving layer. cmd/evalgen reproduces the paper's figures and
// checks them against reference curves; cmd/serve runs the
// anonymization/query service — as a single durable node or, with
// -gateway/-node-id, as a sharded multi-node cluster with snapshot
// replication and scatter/gather query routing (internal/cluster).
package repro
