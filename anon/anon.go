// Package anon is the repository's public anonymization API: one typed
// surface over the paper's family of publication schemes (Cao & Karras,
// "Publishing Microdata with a Robust Privacy Guarantee", PVLDB 2012).
//
// Every scheme implements the same interface:
//
//	type Method interface {
//		Name() string
//		Anonymize(ctx context.Context, t *anon.Table, p anon.Params) (*anon.Release, error)
//	}
//
// and registers itself by name in a process-wide registry, so the release
// store, the HTTP service, CLIs, and notebooks all reach an algorithm the
// same way — by name plus a typed, JSON-(de)serializable Params value —
// and a new scheme becomes a registry entry instead of a fork of every
// consumer. The three built-in methods are:
//
//	anon.MethodBUREL   // β-likeness generalization (§4), *BURELParams
//	anon.MethodAnatomy // Anatomy baseline / ℓ-diverse (§6.3), *AnatomyParams
//	anon.MethodPerturb // (ρ1,ρ2)-privacy randomization (§5), *PerturbParams
//
// Typical in-process use:
//
//	rel, err := anon.Anonymize(ctx, table,
//		anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(1)))
//	est, err := rel.Estimate(anon.Query{SALo: 0, SAHi: 3})
//
// Params constructors apply the paper's §6 defaults; functional options
// override them. Anonymize honors context cancellation: a canceled ctx
// aborts the run instead of letting it finish.
//
// The package re-exports the data-model types a caller needs (Table,
// Schema, Tuple, Query, ...) so external code can build inputs and
// inspect outputs without importing internal packages.
package anon

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/microdata"
	"repro/internal/query"
)

// Data-model aliases: the types a caller needs to construct inputs for a
// Method and to interpret its Release without importing internal
// packages.
type (
	// Table is a microdata table: tuples of QI values plus one SA index.
	Table = microdata.Table
	// Schema describes a table's QI attributes and its SA domain.
	Schema = microdata.Schema
	// Tuple is one row of a table.
	Tuple = microdata.Tuple
	// Attribute is one QI attribute (numeric range or categorical
	// hierarchy).
	Attribute = microdata.Attribute
	// SensitiveAttr is the sensitive attribute's name and value domain.
	SensitiveAttr = microdata.SensitiveAttr
	// PublishedEC is one released row group of a generalized release.
	PublishedEC = microdata.PublishedEC
	// Partition is the pre-publication EC partition of a generalization
	// run, retained on Release for evaluation tooling.
	Partition = microdata.Partition
	// Query is one COUNT(*) aggregation query: conjunctive range
	// predicates over QI attributes plus an SA index range.
	Query = query.Query
)

// Errors shared by the package. Methods wrap them so callers can classify
// failures with errors.Is.
var (
	// ErrUnknownMethod reports a name with no registered method.
	ErrUnknownMethod = errors.New("anon: unknown method")
	// ErrDuplicateMethod reports a Register of an already-taken name.
	ErrDuplicateMethod = errors.New("anon: duplicate method")
	// ErrInvalidParams reports a Params value a method rejects — wrong
	// concrete type or failing validation.
	ErrInvalidParams = errors.New("anon: invalid params")
)

// Params configures one anonymization run. Implementations are typed per
// method (*BURELParams, *AnatomyParams, *PerturbParams, ...), carry JSON
// tags for wire transport, and validate themselves.
type Params interface {
	// Method names the registered method this value configures.
	Method() string
	// Validate rejects parameter combinations the method cannot accept.
	Validate() error
}

// Method is one anonymization scheme. Implementations must be safe for
// concurrent use; every invocation state belongs to the call, not the
// receiver.
type Method interface {
	// Name is the registry key ("burel", "anatomy", "perturb", ...).
	Name() string
	// Anonymize runs the scheme over t under p and returns the release.
	// It fails with a ctx error when canceled mid-run, and wraps
	// ErrInvalidParams when p has the wrong type or fails validation.
	// The table is not copied: callers must not mutate it during the
	// call, and the release may retain references into it.
	Anonymize(ctx context.Context, t *Table, p Params) (*Release, error)
}

// ParamsFactory is implemented by methods that can mint a fresh Params
// value carrying their defaults — the hook NewParams and UnmarshalParams
// use to decode wire params without a per-method switch.
type ParamsFactory interface {
	NewParams() Params
}

// Anonymize dispatches to the registered method named by p.Method(): the
// one-call form of Lookup + Method.Anonymize.
func Anonymize(ctx context.Context, t *Table, p Params) (*Release, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: nil params", ErrInvalidParams)
	}
	m, err := Lookup(p.Method())
	if err != nil {
		return nil, err
	}
	return m.Anonymize(ctx, t, p)
}

// paramsTypeError reports a Params value of the wrong concrete type.
func paramsTypeError(method string, p Params) error {
	return fmt.Errorf("%w: method %q wants its own params type, got %T", ErrInvalidParams, method, p)
}

// checkRun validates the common preconditions of every built-in method.
func checkRun(ctx context.Context, t *Table, p Params) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if t == nil || t.Len() == 0 {
		return fmt.Errorf("%w: empty table", ErrInvalidParams)
	}
	if err := t.Schema.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	return nil
}
