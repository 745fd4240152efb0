package anon

import (
	"context"
	"fmt"

	"repro/internal/sabre"
)

// MethodSABRE names the SABRE t-closeness bucketization method (Cao,
// Karras, Kalnis, Tan, VLDBJ 2011) — the dedicated t-closeness algorithm
// the β-likeness paper compares against in §6.1. Its output is a
// generalized EC partition, so the PublishedEC estimator, grid index,
// and snapshot codec serve it unchanged.
const MethodSABRE = "sabre"

// DefaultT is the t-closeness threshold the params constructors default
// to, matching the mid-range setting of the §6.1 comparison.
const DefaultT = 0.15

// SABREParams configures a SABRE run.
type SABREParams struct {
	// T is the t-closeness threshold under the equal-distance EMD (≥ 0;
	// smaller is stricter).
	T float64 `json:"t"`
	// Seed drives EC seeding randomness; runs are deterministic for a
	// fixed seed and input.
	Seed int64 `json:"seed,omitempty"`
	// HilbertBits is the space-filling-curve resolution used to cluster
	// EC members (0 = default 10; capped at 32 and so that
	// dims·bits ≤ 63).
	HilbertBits int `json:"hilbert_bits,omitempty"`
}

// SABREOption mutates SABREParams during construction.
type SABREOption func(*SABREParams)

// SABRET sets the t-closeness threshold.
func SABRET(t float64) SABREOption { return func(p *SABREParams) { p.T = t } }

// SABRESeed sets the run seed.
func SABRESeed(seed int64) SABREOption { return func(p *SABREParams) { p.Seed = seed } }

// SABREHilbertBits sets the Hilbert curve resolution.
func SABREHilbertBits(bits int) SABREOption { return func(p *SABREParams) { p.HilbertBits = bits } }

// NewSABREParams returns SABRE params at the defaults (t = 0.15), with
// options applied in order.
func NewSABREParams(opts ...SABREOption) *SABREParams {
	p := &SABREParams{T: DefaultT}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Method implements Params.
func (p *SABREParams) Method() string { return MethodSABRE }

// Validate implements Params. A typed-nil receiver is invalid, not a
// panic: interface nil checks upstream cannot see it.
func (p *SABREParams) Validate() error {
	if p == nil {
		return fmt.Errorf("sabre: nil params")
	}
	if p.T < 0 {
		return fmt.Errorf("sabre: t must be ≥ 0, got %v", p.T)
	}
	if p.HilbertBits < 0 || p.HilbertBits > 63 {
		return fmt.Errorf("sabre: hilbert_bits must be in [0,63], got %d", p.HilbertBits)
	}
	return nil
}

// sabreMethod adapts internal/sabre to the Method interface.
type sabreMethod struct{}

func init() { MustRegister(sabreMethod{}) }

func (sabreMethod) Name() string { return MethodSABRE }

// NewParams implements ParamsFactory.
func (sabreMethod) NewParams() Params { return NewSABREParams() }

func (sabreMethod) Anonymize(ctx context.Context, t *Table, p Params) (*Release, error) {
	sp, ok := p.(*SABREParams)
	if !ok {
		return nil, paramsTypeError(MethodSABRE, p)
	}
	if err := checkRun(ctx, t, p); err != nil {
		return nil, err
	}
	res, err := sabre.Anonymize(t, sabre.Options{T: sp.T, Seed: sp.Seed, HilbertBits: sp.HilbertBits})
	if err != nil {
		return nil, err
	}
	return &Release{
		Method:    MethodSABRE,
		Schema:    t.Schema,
		Rows:      t.Len(),
		ECs:       res.Partition.Publish(),
		Partition: res.Partition,
		AIL:       res.Partition.AIL(),
	}, ctx.Err()
}
