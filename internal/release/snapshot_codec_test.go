package release

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/hierarchy"
	"repro/internal/likeness"
	"repro/internal/microdata"
	"repro/internal/perturb"
	"repro/internal/query"
)

// codecSchema is the fixed schema every codec fixture uses: one numeric
// and one categorical QI (with a non-flat hierarchy, so leaf ranks and
// the Parse round-trip are both exercised) over a 4-value SA domain.
func codecSchema() *microdata.Schema {
	h := hierarchy.MustNew(hierarchy.N("any",
		hierarchy.N("manual", hierarchy.N("farm"), hierarchy.N("factory")),
		hierarchy.N("office", hierarchy.N("clerk"), hierarchy.N("exec")),
	))
	return &microdata.Schema{
		QI: []microdata.Attribute{
			microdata.NumericAttr("age", 10, 90),
			microdata.CategoricalAttr("work", h),
		},
		SA: microdata.SensitiveAttr{Name: "salary", Values: []string{"low", "mid", "high", "top"}},
	}
}

func codecTable(schema *microdata.Schema) *microdata.Table {
	t := microdata.NewTable(schema)
	rows := []struct {
		age  float64
		work float64
		sa   int
	}{
		{23, 0, 0}, {31, 1, 1}, {47, 2, 2}, {52, 3, 3}, {64, 0, 0}, {78, 2, 1},
	}
	for _, r := range rows {
		t.MustAppend(microdata.Tuple{QI: []float64{r.age, r.work}, SA: r.sa})
	}
	return t
}

// codecFixtures builds one deterministic snapshot per queryable payload
// shape, each with the spec it would have been built under. Everything is
// hand-constructed — no RNG, no dependence on anonymization internals —
// so the golden files pin the wire format, not the algorithms.
func codecFixtures(t testing.TB) map[string]struct {
	snap *Snapshot
	spec Spec
} {
	t.Helper()
	schema := codecSchema()
	out := make(map[string]struct {
		snap *Snapshot
		spec Spec
	})

	ecs := []microdata.PublishedEC{
		{Box: microdata.Box{Lo: []float64{10, 0}, Hi: []float64{35, 1}}, SACounts: []int{2, 1, 0, 0}, Size: 3},
		{Box: microdata.Box{Lo: []float64{36, 0}, Hi: []float64{60, 3}}, SACounts: []int{0, 1, 1, 1}, Size: 3},
		{Box: microdata.Box{Lo: []float64{61, 2}, Hi: []float64{90, 3}}, SACounts: []int{1, 0, 2, 0}, Size: 3},
	}
	out["burel"] = struct {
		snap *Snapshot
		spec Spec
	}{
		snap: mustSnapshot(t, &anon.Release{Method: anon.MethodBUREL, Schema: schema, Rows: 9, ECs: ecs, AIL: 0.3125}, 8),
		spec: Spec{
			Method:    anon.MethodBUREL,
			Params:    anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(7)),
			GridCells: 8,
		},
	}

	baseTab := codecTable(schema)
	base, err := anon.Anonymize(context.Background(), baseTab, anon.NewAnatomyParams(anon.AnatomySeed(5)))
	if err != nil {
		t.Fatal(err)
	}
	out["anatomy_baseline"] = struct {
		snap *Snapshot
		spec Spec
	}{
		snap: mustSnapshot(t, base, 0),
		spec: Spec{Method: anon.MethodAnatomy, Params: anon.NewAnatomyParams(anon.AnatomySeed(5))},
	}

	ldiv, err := anon.Anonymize(context.Background(), codecTable(schema), anon.NewAnatomyParams(anon.AnatomyL(2), anon.AnatomySeed(5)))
	if err != nil {
		t.Fatal(err)
	}
	out["anatomy_ldiverse"] = struct {
		snap *Snapshot
		spec Spec
	}{
		snap: mustSnapshot(t, ldiv, 0),
		spec: Spec{Method: anon.MethodAnatomy, Params: anon.NewAnatomyParams(anon.AnatomyL(2), anon.AnatomySeed(5))},
	}

	out["perturb"] = struct {
		snap *Snapshot
		spec Spec
	}{
		snap: mustSnapshot(t, codecPerturbRelease(t, schema), 0),
		spec: Spec{Method: anon.MethodPerturb, Params: anon.NewPerturbParams(anon.PerturbBeta(2), anon.PerturbSeed(5))},
	}
	return out
}

// codecPerturbRelease is the perturb fixture's release as the method
// returns it, its table in anonymizer order: the row-scan reference.
func codecPerturbRelease(t testing.TB, schema *microdata.Schema) *anon.Release {
	t.Helper()
	rel, err := anon.Anonymize(context.Background(), codecTable(schema), anon.NewPerturbParams(anon.PerturbBeta(2), anon.PerturbSeed(5)))
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func mustSnapshot(t testing.TB, rel *anon.Release, gridCells int) *Snapshot {
	t.Helper()
	snap, err := NewSnapshot(rel, gridCells)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// codecQueries is a small deterministic workload touching every fixture's
// schema: full-domain, point-ish, and partial-dimension predicates.
func codecQueries() []query.Query {
	return []query.Query{
		{SALo: 0, SAHi: 3},
		{Dims: []int{0}, Lo: []float64{20}, Hi: []float64{55}, SALo: 0, SAHi: 1},
		{Dims: []int{1}, Lo: []float64{0}, Hi: []float64{1}, SALo: 1, SAHi: 3},
		{Dims: []int{0, 1}, Lo: []float64{30, 1}, Hi: []float64{70, 3}, SALo: 2, SAHi: 2},
		{Dims: []int{0}, Lo: []float64{64}, Hi: []float64{64}, SALo: 0, SAHi: 3},
	}
}

// TestSnapshotRoundTrip pins encode→decode fidelity for every payload
// shape: identical metadata, identical estimates for a query workload,
// and a byte-identical re-encode (the canonicalization the golden files
// and the fuzz target rely on).
func TestSnapshotRoundTrip(t *testing.T) {
	for name, fx := range codecFixtures(t) {
		t.Run(name, func(t *testing.T) {
			data, err := EncodeSnapshot(fx.snap, fx.spec)
			if err != nil {
				t.Fatal(err)
			}
			got, spec, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != fx.snap.Kind {
				t.Fatalf("kind %q, want %q", got.Kind, fx.snap.Kind)
			}
			if got.Method != fx.snap.Method {
				t.Fatalf("method %q, want %q", got.Method, fx.snap.Method)
			}
			if got.Rows != fx.snap.Rows || got.AIL != fx.snap.AIL {
				t.Fatalf("rows/ail %d/%v, want %d/%v", got.Rows, got.AIL, fx.snap.Rows, fx.snap.AIL)
			}
			if got.NumECs() != fx.snap.NumECs() {
				t.Fatalf("num ECs %d, want %d", got.NumECs(), fx.snap.NumECs())
			}
			if spec.Method != fx.spec.Method || spec.GridCells != fx.spec.GridCells {
				t.Fatalf("spec %+v, want %+v", spec, fx.spec)
			}
			if (got.Index != nil) != (fx.snap.Index != nil) {
				t.Fatalf("index presence %v, want %v", got.Index != nil, fx.snap.Index != nil)
			}
			for qi, q := range codecQueries() {
				want, err := fx.snap.Estimate(q)
				if err != nil {
					t.Fatalf("query %d against original: %v", qi, err)
				}
				have, err := got.Estimate(q)
				if err != nil {
					t.Fatalf("query %d against decoded: %v", qi, err)
				}
				if math.Abs(have-want) > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("query %d: decoded %v, original %v", qi, have, want)
				}
			}
			again, err := EncodeSnapshot(got, spec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("re-encode is not byte-identical: %d vs %d bytes", len(data), len(again))
			}
		})
	}
}

// TestSnapshotRoundTripBuiltRelease round-trips a snapshot produced by a
// real BUREL run over generated data — the exact artifact the durable
// store writes — and checks estimate fidelity through the grid index.
func TestSnapshotRoundTripBuiltRelease(t *testing.T) {
	tab := census.Generate(census.Options{N: 600, Seed: 11}).Project(3)
	spec := Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(3))}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	_, snap, err := Build(context.Background(), tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSnapshot(snap, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := query.NewGenerator(tab.Schema, 2, 0.05, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		q := gen.Next()
		want, err := snap.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(have-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("query %d: decoded %v, original %v", i, have, want)
		}
	}
}

// TestSnapshotDecodeKeepsStoredECOrder: a version 3 decode keeps the EC
// order its file stores, canonical or not, and answers with the bits of
// the linear scan over that order. The file here stores a shuffle of
// synthetic ECs, columns built straight from the rows.
func TestSnapshotDecodeKeepsStoredECOrder(t *testing.T) {
	schema := census.Schema().Project(3)
	rng := rand.New(rand.NewSource(5))
	ecs := SyntheticECs(schema, 400, rng)
	rng.Shuffle(len(ecs), func(i, j int) { ecs[i], ecs[j] = ecs[j], ecs[i] })
	ordered := slices.Clone(ecs)
	hilbertOrder(schema, ordered)
	if reflect.DeepEqual(ordered, ecs) {
		t.Fatal("the shuffle is in Hilbert order; pick another seed")
	}
	cols, err := microdata.BuildECColumns(ecs, len(schema.QI), len(schema.SA.Values))
	if err != nil {
		t.Fatal(err)
	}
	stored := &Snapshot{
		Kind:   KindGeneralized,
		Schema: schema,
		Method: anon.MethodBUREL,
		Index:  BuildIndex(schema, cols, 0),
	}
	data, err := EncodeSnapshot(stored, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Index.Columns(), cols) {
		t.Fatal("decode reordered the stored ECs")
	}
	gen, err := query.NewGenerator(schema, 2, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []query.Aggregate{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax}
	for i := 0; i < 200; i++ {
		q := gen.Next()
		q.Agg = aggs[i%len(aggs)]
		want := query.EstimateGeneralized(schema, ecs, q)
		got, err := snap.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d agg %v: decoded %v, linear scan in stored order %v", i, q.Agg, got, want)
		}
	}
}

// TestNewSnapshotRejectsOutOfRangeECs: where rows become columns, an EC
// size or SA count the int32 columns (and the u32 wire columns) cannot
// hold, or a row of the wrong shape, fails the build instead of being
// truncated or persisted.
func TestNewSnapshotRejectsOutOfRangeECs(t *testing.T) {
	schema := codecSchema()
	for name, mutate := range map[string]func(ec *microdata.PublishedEC){
		"size past int32":       func(ec *microdata.PublishedEC) { ec.Size = math.MaxInt32 + 1 },
		"negative size":         func(ec *microdata.PublishedEC) { ec.Size = -1 },
		"count past int32":      func(ec *microdata.PublishedEC) { ec.SACounts[1] = math.MaxInt32 + 1 },
		"negative count":        func(ec *microdata.PublishedEC) { ec.SACounts[1] = -1 },
		"counts sum past int32": func(ec *microdata.PublishedEC) { ec.SACounts[0], ec.SACounts[1] = math.MaxInt32, math.MaxInt32 },
		"box too narrow":        func(ec *microdata.PublishedEC) { ec.Box.Lo = ec.Box.Lo[:1] },
		"SA domain too small":   func(ec *microdata.PublishedEC) { ec.SACounts = ec.SACounts[:3] },
	} {
		t.Run(name, func(t *testing.T) {
			ecs := []microdata.PublishedEC{
				{Box: microdata.Box{Lo: []float64{10, 0}, Hi: []float64{35, 1}}, SACounts: []int{1, 1, 0, 0}, Size: 2},
				{Box: microdata.Box{Lo: []float64{61, 2}, Hi: []float64{90, 3}}, SACounts: []int{0, 0, 1, 0}, Size: 1},
			}
			mutate(&ecs[1])
			rel := &anon.Release{Method: anon.MethodBUREL, Schema: schema, Rows: 3, ECs: ecs}
			if _, err := NewSnapshot(rel, 0); err == nil {
				t.Fatal("NewSnapshot accepted the EC")
			}
		})
	}
	// A version 1/2 file's ECs become columns the same way: a malformed
	// row there is corruption, never a panic.
	fx := codecFixtures(t)["burel"]
	legacy := mangleSection(t, encodeSnapshotLegacy(t, fx.snap, fx.spec, 2), 2, func(sec []byte) []byte {
		return bytes.Replace(sec, []byte(`"lo":[10,0]`), []byte(`"lo":[10]`), 1)
	})
	if _, _, err := DecodeSnapshot(legacy); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("v2 EC box of the wrong width: %v, want ErrCorruptSnapshot", err)
	}
}

// TestEncodePayloadExactSize: the binary column section is allocated at
// its final length, so encoding never regrows it — on every fixture kind
// and on built generalized and perturbed releases.
func TestEncodePayloadExactSize(t *testing.T) {
	snaps := map[string]*Snapshot{}
	for name, fx := range codecFixtures(t) {
		snaps[name] = fx.snap
	}
	tab := census.Generate(census.Options{N: 700, Seed: 11}).Project(3)
	for name, params := range map[string]anon.Params{
		"built_burel":   anon.NewBURELParams(anon.BURELBeta(4), anon.BURELSeed(3)),
		"built_perturb": anon.NewPerturbParams(anon.PerturbBeta(4), anon.PerturbSeed(3)),
	} {
		_, snap, err := Build(context.Background(), tab, Spec{Method: params.Method(), Params: params})
		if err != nil {
			t.Fatal(err)
		}
		snaps[name] = snap
	}
	for name, snap := range snaps {
		_, columns, err := encodePayload(snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(columns) != cap(columns) {
			t.Errorf("%s: column section len %d, cap %d", name, len(columns), cap(columns))
		}
	}
}

// TestSnapshotDecodeRejectsDamage walks the corruption taxonomy: every
// damaged input must come back as a typed error, never a panic, never a
// silently wrong snapshot.
func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	fx := codecFixtures(t)["burel"]
	data, err := EncodeSnapshot(fx.snap, fx.spec)
	if err != nil {
		t.Fatal(err)
	}

	corruptCases := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"short":     func() []byte { return data[:6] },
		"bad magic": func() []byte { d := clone(data); d[0] ^= 0xff; return d },
		"truncated section": func() []byte {
			return data[:len(snapshotMagic)+4+2]
		},
		"truncated mid payload": func() []byte { return data[:len(data)/2] },
		"missing trailer":       func() []byte { return data[:len(data)-4] },
		"flipped payload byte":  func() []byte { d := clone(data); d[len(d)/2] ^= 0x20; return d },
		"flipped checksum":      func() []byte { d := clone(data); d[len(d)-1] ^= 0x01; return d },
		"oversized section length": func() []byte {
			d := clone(data)
			binary.BigEndian.PutUint32(d[len(snapshotMagic)+4:], 0xfffffff0)
			return reseal(d)
		},
		"trailing garbage": func() []byte {
			d := append(clone(data[:len(data)-4]), 0, 0, 0)
			return reseal(append(d, 0, 0, 0, 0))
		},
	}
	for name, mk := range corruptCases {
		t.Run(name, func(t *testing.T) {
			_, _, err := DecodeSnapshot(mk())
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("want ErrCorruptSnapshot, got %v", err)
			}
		})
	}

	t.Run("future version", func(t *testing.T) {
		d := clone(data)
		binary.BigEndian.PutUint32(d[len(snapshotMagic):], SnapshotFormatVersion+1)
		_, _, err := DecodeSnapshot(reseal(d))
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("want ErrSnapshotVersion, got %v", err)
		}
	})
	t.Run("version zero", func(t *testing.T) {
		d := clone(data)
		binary.BigEndian.PutUint32(d[len(snapshotMagic):], 0)
		_, _, err := DecodeSnapshot(reseal(d))
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("want ErrSnapshotVersion, got %v", err)
		}
	})
}

// TestSnapshotDecodeAcceptsLegacy pins backward decode compatibility:
// versions 1 and 2 carried the row data as JSON inside a three-section
// file, and an upgraded node must keep loading snapshots persisted by
// those writers and answer queries over them identically. The old-writer
// bytes are synthesized by encodeSnapshotLegacy, since the production
// encoder only emits the current format.
func TestSnapshotDecodeAcceptsLegacy(t *testing.T) {
	for name, fx := range codecFixtures(t) {
		for _, version := range []uint32{1, 2} {
			t.Run(fmt.Sprintf("%s/v%d", name, version), func(t *testing.T) {
				data := encodeSnapshotLegacy(t, fx.snap, fx.spec, version)
				snap, spec, err := DecodeSnapshot(data)
				if err != nil {
					t.Fatalf("version-%d snapshot no longer decodes: %v", version, err)
				}
				if snap.Kind != fx.snap.Kind || spec.Method != fx.spec.Method {
					t.Fatalf("decoded kind %q / method %q, want %q / %q",
						snap.Kind, spec.Method, fx.snap.Kind, fx.spec.Method)
				}
				for qi, q := range codecQueries() {
					want, err := fx.snap.Estimate(q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := snap.Estimate(q)
					if err != nil {
						t.Fatalf("query %d against v%d decode: %v", qi, version, err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("query %d: v%d decode answers %v, original %v", qi, version, got, want)
					}
				}
				// A legacy decode must re-encode into the current format and
				// keep answering — the upgrade path of every persisted store.
				upgraded, err := EncodeSnapshot(snap, spec)
				if err != nil {
					t.Fatalf("legacy snapshot does not re-encode: %v", err)
				}
				if v := binary.BigEndian.Uint32(upgraded[len(snapshotMagic):]); v != SnapshotFormatVersion {
					t.Fatalf("re-encode wrote version %d, want %d", v, SnapshotFormatVersion)
				}
				if _, _, err := DecodeSnapshot(upgraded); err != nil {
					t.Fatalf("upgraded snapshot does not decode: %v", err)
				}
			})
		}
	}
}

// TestSnapshotDecodeV2Fixtures decodes the frozen version-2 files under
// testdata/v2 — real bytes committed by the previous format's writer, not
// synthesized — and checks they answer queries identically to freshly
// built fixtures. These files are never regenerated: they exist precisely
// so a decode-compat break cannot hide behind a fixture refresh.
func TestSnapshotDecodeV2Fixtures(t *testing.T) {
	fixtures := codecFixtures(t)
	entries, err := os.ReadDir(filepath.Join("testdata", "v2"))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".snap")
		if name == e.Name() {
			continue
		}
		fx, ok := fixtures[name]
		if !ok {
			t.Errorf("frozen fixture %q has no in-memory counterpart", name)
			continue
		}
		seen++
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "v2", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			snap, spec, err := DecodeSnapshot(data)
			if err != nil {
				t.Fatalf("frozen v2 snapshot no longer decodes: %v", err)
			}
			if snap.Kind != fx.snap.Kind || spec.Method != fx.spec.Method {
				t.Fatalf("decoded kind %q / method %q, want %q / %q",
					snap.Kind, spec.Method, fx.snap.Kind, fx.spec.Method)
			}
			for qi, q := range codecQueries() {
				want, err := fx.snap.Estimate(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := snap.Estimate(q)
				if err != nil {
					t.Fatalf("query %d against frozen v2 decode: %v", qi, err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("query %d: frozen v2 decode answers %v, fresh fixture %v", qi, got, want)
				}
			}
		})
	}
	if seen != len(fixtures) {
		t.Fatalf("found %d frozen v2 fixtures, want one per codec fixture (%d)", seen, len(fixtures))
	}
}

// TestSnapshotDecodeV3Fixtures decodes testdata/v3/perturb.snap, the
// perturb golden as the encoder wrote it before perturbed snapshots were
// laid out in canonical order: its tuples sit in anonymizer order. Decode
// never reorders, so the file keeps that order, answers every codec query
// with the bits of the row-scan reference (it only skips fewer blocks),
// and re-encodes to itself. Like testdata/v2, it is never regenerated.
func TestSnapshotDecodeV3Fixtures(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v3", "perturb.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, spec, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("frozen v3 snapshot no longer decodes: %v", err)
	}
	rel := codecPerturbRelease(t, codecSchema())
	c, err := tableColumns(rel.Perturbed)
	if err != nil {
		t.Fatal(err)
	}
	qi, sa := c.qi, c.sa
	if !reflect.DeepEqual(snap.Tuples.QI, qi) || !reflect.DeepEqual(snap.Tuples.SA, sa) {
		t.Fatal("decode reordered the frozen snapshot's tuples")
	}
	for i, q := range codecQueries() {
		want, err := query.EstimatePerturbed(rel.Perturbed, rel.Scheme, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.Estimate(q)
		if err != nil {
			t.Fatalf("query %d against frozen v3 decode: %v", i, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: frozen v3 decode answers %v, row scan %v", i, got, want)
		}
	}
	again, err := EncodeSnapshot(snap, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("frozen v3 snapshot does not re-encode to itself")
	}
}

// TestSamePublication: a fixture as built is the same publication as its
// encode → decode and as its frozen v2 file, and the perturb fixture as
// its frozen v3 file, whose tuples sit in anonymizer order. Changing any
// one published value makes a snapshot another publication.
func TestSamePublication(t *testing.T) {
	fixtures := codecFixtures(t)
	same := func(t *testing.T, a, b *Snapshot) bool {
		t.Helper()
		ok, err := SamePublication(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	decode := func(t *testing.T, data []byte) *Snapshot {
		t.Helper()
		snap, _, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	roundTrip := func(t *testing.T, name string) *Snapshot {
		t.Helper()
		data, err := EncodeSnapshot(fixtures[name].snap, fixtures[name].spec)
		if err != nil {
			t.Fatal(err)
		}
		return decode(t, data)
	}
	frozen := func(t *testing.T, dir, name string) *Snapshot {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("testdata", dir, name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		return decode(t, data)
	}
	for name, fx := range fixtures {
		t.Run(name, func(t *testing.T) {
			if !same(t, fx.snap, roundTrip(t, name)) {
				t.Error("not the same publication as its encode → decode")
			}
			if !same(t, fx.snap, frozen(t, "v2", name)) {
				t.Error("not the same publication as its frozen v2 file")
			}
		})
	}
	if !same(t, fixtures["perturb"].snap, frozen(t, "v3", "perturb")) {
		t.Error("perturb: not the same publication as its frozen v3 file")
	}

	// Each change is made to a fresh decode, so no fixture is touched.
	for _, tc := range []struct {
		name, fixture string
		change        func(s *Snapshot)
	}{
		{"EC SA count", "burel", func(s *Snapshot) { s.Index.Columns().SACounts[0]++ }},
		{"header AIL", "burel", func(s *Snapshot) { s.AIL += 0.5 }},
		{"baseline tuple QI", "anatomy_baseline", func(s *Snapshot) { s.Baseline.Table.Tuples[0].QI[0]++ }},
		{"baseline P entry", "anatomy_baseline", func(s *Snapshot) { s.Baseline.P[0] += 0.125 }},
		{"ℓ-diverse tuple QI", "anatomy_ldiverse", func(s *Snapshot) { s.LDiverse.Table.Tuples[0].QI[0]++ }},
		{"ℓ-diverse group rows", "anatomy_ldiverse", func(s *Snapshot) {
			g := s.LDiverse.Groups
			g[0].Rows[0] = g[1].Rows[0]
		}},
		{"perturbed tuple QI", "perturb", func(s *Snapshot) { s.Tuples.QI[0][0]++ }},
		{"model β", "perturb", func(s *Snapshot) { s.Scheme.Model.Beta++ }},
		{"model variant", "perturb", func(s *Snapshot) { s.Scheme.Model.Variant = likeness.Basic }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := roundTrip(t, tc.fixture)
			tc.change(s)
			if same(t, fixtures[tc.fixture].snap, s) {
				t.Fatal("still the same publication")
			}
		})
	}
}

// TestSnapshotDecodeRejectsNonFiniteQI: a NaN or infinite QI value was
// never in its attribute's domain, so a stored tuple block holding one is
// corrupt. Both decoders of tuple blocks, the perturbed kind's column
// check and the anatomy kinds' Table.Append, refuse it.
func TestSnapshotDecodeRejectsNonFiniteQI(t *testing.T) {
	fxs := codecFixtures(t)
	for _, name := range []string{"perturb", "anatomy_baseline"} {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			t.Run(fmt.Sprintf("%s/%v", name, bad), func(t *testing.T) {
				data, err := EncodeSnapshot(fxs[name].snap, fxs[name].spec)
				if err != nil {
					t.Fatal(err)
				}
				// flags (1) | rows (4) | dims (4) | column 0 length (4), then
				// row 0's value in dimension 0, the numeric age.
				data = mangleSection(t, data, 3, func(sec []byte) []byte {
					binary.LittleEndian.PutUint64(sec[13:], math.Float64bits(bad))
					return sec
				})
				if _, _, err := DecodeSnapshot(data); !errors.Is(err, ErrCorruptSnapshot) {
					t.Fatalf("want ErrCorruptSnapshot, got %v", err)
				}
			})
		}
	}
}

// TestSnapshotDecodeRejectsInconsistentPayload damages semantic content
// (with a valid checksum) and requires typed rejection: these are the
// corruptions CRC32 cannot catch, e.g. a buggy external producer. Row
// data now travels in the binary section, so its cases are built by
// encoding deliberately inconsistent in-memory state; the small per-kind
// state still lives in payload JSON and is mangled textually.
func TestSnapshotDecodeRejectsInconsistentPayload(t *testing.T) {
	fxs := codecFixtures(t)
	jsonMangle := func(fixture string, old, new string) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			fx := fxs[fixture]
			data, err := EncodeSnapshot(fx.snap, fx.spec)
			if err != nil {
				t.Fatal(err)
			}
			return mangleSection(t, data, 2, func(sec []byte) []byte {
				return bytes.Replace(sec, []byte(old), []byte(new), 1)
			})
		}
	}
	// encodeMutatedBurel deep-copies the burel EC store, applies fn, and
	// encodes the result: structurally sound wire bytes whose row data
	// lies about itself.
	encodeMutatedBurel := func(fn func(c *microdata.ECColumns)) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			fx := fxs["burel"]
			orig := fx.snap.Index.Columns()
			c := microdata.NewECColumns(orig.N, orig.D, orig.M)
			for d := range c.Lo {
				copy(c.Lo[d], orig.Lo[d])
				copy(c.Hi[d], orig.Hi[d])
			}
			copy(c.Sizes, orig.Sizes)
			copy(c.SACounts, orig.SACounts)
			if err := c.DerivePrefix(); err != nil {
				t.Fatal(err)
			}
			fn(c)
			snap := *fx.snap
			snap.Index = BuildIndex(fx.snap.Schema, c, fx.spec.GridCells)
			data, err := EncodeSnapshot(&snap, fx.spec)
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
	}
	cases := map[string]func(*testing.T) []byte{
		"ec size disagrees with counts": encodeMutatedBurel(func(c *microdata.ECColumns) {
			c.Sizes[0]++
		}),
		"ec box inverted": encodeMutatedBurel(func(c *microdata.ECColumns) {
			c.Lo[0][0] = c.Hi[0][0] + 1
		}),
		"tuple outside domain": func(t *testing.T) []byte {
			fx := fxs["anatomy_baseline"]
			orig := fx.snap.Baseline
			tab := microdata.NewTable(fx.snap.Schema)
			for _, tp := range orig.Table.Tuples {
				tab.Tuples = append(tab.Tuples, microdata.Tuple{QI: clone64(tp.QI), SA: tp.SA})
			}
			tab.Tuples[0].QI[0] = 230 // age domain tops out at 90
			pub := *orig
			pub.Table = tab
			snap := *fx.snap
			snap.Baseline = &pub
			data, err := EncodeSnapshot(&snap, fx.spec)
			if err != nil {
				t.Fatal(err)
			}
			return data
		},
		"group row out of range":         jsonMangle("anatomy_ldiverse", `"groups":[[`, `"groups":[[99,`),
		"model variant unknown":          jsonMangle("perturb", `"variant":"enhanced"`, `"variant":"quantum"`),
		"negative beta":                  jsonMangle("perturb", `"beta":2`, `"beta":-2`),
		"payload JSON smuggles row data": jsonMangle("burel", `{"schema"`, `{"ecs":[],"schema"`),
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := DecodeSnapshot(mk(t))
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("want ErrCorruptSnapshot, got %v", err)
			}
		})
	}
}

func clone64(v []float64) []float64 { return append([]float64(nil), v...) }

// TestSnapshotDecodeRejectsBinaryDamage drives the columnar section's own
// validation: hostile counts, truncation inside a column, splice leftovers
// and unknown flags must all come back as typed corruption — with a valid
// CRC, so only the binary decoder stands between the damage and a panic.
func TestSnapshotDecodeRejectsBinaryDamage(t *testing.T) {
	fxs := codecFixtures(t)
	burel, err := EncodeSnapshot(fxs["burel"].snap, fxs["burel"].spec)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := EncodeSnapshot(fxs["anatomy_baseline"].snap, fxs["anatomy_baseline"].spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*testing.T) []byte{
		"empty binary section": func(t *testing.T) []byte {
			return rebuildSection(t, burel, 3, nil)
		},
		"unknown flag bits": func(t *testing.T) []byte {
			return mangleSection(t, burel, 3, func(sec []byte) []byte {
				sec[0] |= 0x80
				return sec
			})
		},
		"wrong block for kind": func(t *testing.T) []byte {
			// A generalized snapshot wearing a tuple block: each side is
			// well-formed, the combination is not.
			_, secs := splitSections(t, baseline)
			return rebuildSection(t, burel, 3, secs[3])
		},
		"hostile EC count": func(t *testing.T) []byte {
			return mangleSection(t, burel, 3, func(sec []byte) []byte {
				binary.LittleEndian.PutUint32(sec[1:], 0x7ffffff0)
				return sec
			})
		},
		"EC count overflows int32": func(t *testing.T) []byte {
			return mangleSection(t, burel, 3, func(sec []byte) []byte {
				binary.LittleEndian.PutUint32(sec[1:], 0xffffffff)
				return sec
			})
		},
		"dims disagree with schema": func(t *testing.T) []byte {
			return mangleSection(t, burel, 3, func(sec []byte) []byte {
				binary.LittleEndian.PutUint32(sec[5:], 7)
				return sec
			})
		},
		"column length mismatch": func(t *testing.T) []byte {
			return mangleSection(t, burel, 3, func(sec []byte) []byte {
				// First lo column's count prefix sits right after the
				// flags byte and the N/D/M words.
				binary.LittleEndian.PutUint32(sec[13:], 2)
				return sec
			})
		},
		"truncated mid column": func(t *testing.T) []byte {
			return mangleSection(t, burel, 3, func(sec []byte) []byte {
				return sec[:len(sec)-5]
			})
		},
		"trailing bytes after blocks": func(t *testing.T) []byte {
			return mangleSection(t, burel, 3, func(sec []byte) []byte {
				return append(sec, 0xde, 0xad)
			})
		},
		"tuple block truncated mid column": func(t *testing.T) []byte {
			return mangleSection(t, baseline, 3, func(sec []byte) []byte {
				return sec[:len(sec)-3]
			})
		},
		"hostile row count": func(t *testing.T) []byte {
			return mangleSection(t, baseline, 3, func(sec []byte) []byte {
				binary.LittleEndian.PutUint32(sec[1:], 0x40000000)
				return sec
			})
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := DecodeSnapshot(mk(t))
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("want ErrCorruptSnapshot, got %v", err)
			}
		})
	}
}

// TestSnapshotSchemeRebuildExact verifies the perturbation scheme rebuilt
// from the persisted model is numerically identical to the original: same
// PM, same α, same reconstruction output.
func TestSnapshotSchemeRebuildExact(t *testing.T) {
	fx := codecFixtures(t)["perturb"]
	data, err := EncodeSnapshot(fx.snap, fx.spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	orig, dec := fx.snap.Scheme, got.Scheme
	if len(orig.Alpha) != len(dec.Alpha) {
		t.Fatalf("alpha lengths %d vs %d", len(orig.Alpha), len(dec.Alpha))
	}
	for i := range orig.Alpha {
		if orig.Alpha[i] != dec.Alpha[i] || orig.Gamma[i] != dec.Gamma[i] {
			t.Fatalf("calibration %d differs: α %v/%v γ %v/%v", i, orig.Alpha[i], dec.Alpha[i], orig.Gamma[i], dec.Gamma[i])
		}
	}
	observed := []int{3, 1, 1, 1}
	a, err := orig.Reconstruct(observed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.Reconstruct(observed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reconstruction %d: %v vs %v", i, a[i], b[i])
		}
	}
	var _ *perturb.Scheme = dec
	var _ likeness.Variant = dec.Model.Variant
}

// TestSnapshotDecodeToleratesUnresolvableSpec pins forward tolerance: a
// spec whose method/params no longer resolve against the anon registry
// (renamed or removed since the snapshot was written) must not fail the
// snapshot — the payload is self-sufficient; only the params are
// dropped. Structurally broken spec JSON is still corrupt.
func TestSnapshotDecodeToleratesUnresolvableSpec(t *testing.T) {
	fx := codecFixtures(t)["burel"]
	data, err := EncodeSnapshot(fx.snap, fx.spec)
	if err != nil {
		t.Fatal(err)
	}
	lenient := rebuildSection(t, data, 1, []byte(`{"method":"long-gone","params":{"x":1},"grid_cells":8}`))
	snap, spec, err := DecodeSnapshot(lenient)
	if err != nil {
		t.Fatalf("unresolvable spec failed the snapshot: %v", err)
	}
	if spec.Method != "long-gone" || spec.Params != nil || spec.GridCells != 8 {
		t.Fatalf("lenient spec decoded as %+v", spec)
	}
	if _, err := snap.Estimate(fullDomainQuery(len(snap.Schema.SA.Values))); err != nil {
		t.Fatalf("snapshot with lenient spec does not answer: %v", err)
	}
	_, _, err = DecodeSnapshot(rebuildSection(t, data, 1, []byte(`{`)))
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("broken spec JSON: %v, want ErrCorruptSnapshot", err)
	}
}

// TestSnapshotDecodeRejectsPartialGroupCoverage pins that an ℓ-diverse
// grouping omitting table rows is rejected: each group may be internally
// consistent, but an incomplete partition silently undercounts.
func TestSnapshotDecodeRejectsPartialGroupCoverage(t *testing.T) {
	fx := codecFixtures(t)["anatomy_ldiverse"]
	orig := fx.snap.LDiverse
	partial := *orig
	partial.Groups = orig.Groups[1:]
	partial.SACounts = orig.SACounts[1:]
	snap := *fx.snap
	snap.LDiverse = &partial
	data, err := EncodeSnapshot(&snap, fx.spec)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = DecodeSnapshot(data)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("partial group coverage decoded: %v, want ErrCorruptSnapshot", err)
	}
}

// splitSections parses a well-formed snapshot into its version and
// section byte slices (3 for versions 1-2, 4 for version 3), without
// validating the CRC.
func splitSections(t testing.TB, data []byte) (uint32, [][]byte) {
	t.Helper()
	pos := len(snapshotMagic)
	v := binary.BigEndian.Uint32(data[pos:])
	pos += 4
	n := 3
	if v >= 3 {
		n = 4
	}
	secs := make([][]byte, n)
	rest := data[pos : len(data)-4]
	for i := range secs {
		l := binary.BigEndian.Uint32(rest)
		secs[i] = rest[4 : 4+l]
		rest = rest[4+l:]
	}
	if len(rest) != 0 {
		t.Fatalf("snapshot has %d bytes past its sections; fixture drifted", len(rest))
	}
	return v, secs
}

// joinSections reassembles a snapshot from a version and its sections,
// recomputing every length prefix and the CRC.
func joinSections(v uint32, secs [][]byte) []byte {
	out := []byte(snapshotMagic)
	out = binary.BigEndian.AppendUint32(out, v)
	for _, s := range secs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// mangleSection applies fn to one section's bytes and reseals the file,
// so a test reaches the validation behind the length and CRC gates.
func mangleSection(t testing.TB, data []byte, idx int, fn func([]byte) []byte) []byte {
	t.Helper()
	v, secs := splitSections(t, data)
	mangled := fn(clone(secs[idx]))
	if bytes.Equal(mangled, secs[idx]) {
		t.Fatalf("section %d mangle was a no-op; fixture drifted", idx)
	}
	secs[idx] = mangled
	return joinSections(v, secs)
}

// rebuildSection reassembles a snapshot with one section replaced.
func rebuildSection(t *testing.T, data []byte, idx int, replacement []byte) []byte {
	t.Helper()
	v, secs := splitSections(t, data)
	secs[idx] = replacement
	return joinSections(v, secs)
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// reseal recomputes the trailing checksum so a test reaches the logic
// behind the CRC gate.
func reseal(d []byte) []byte {
	if len(d) < 4 {
		return d
	}
	body := d[:len(d)-4]
	out := clone(body)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// encodeSnapshotLegacy writes the all-JSON three-section wire form that
// format versions 1 and 2 used, with the row data inline in the payload
// section. The production encoder only ever emits the current version, so
// the decode-compat tests synthesize old-writer bytes here.
func encodeSnapshotLegacy(t testing.TB, snap *Snapshot, spec Spec, version uint32) []byte {
	t.Helper()
	header, err := json.Marshal(snapHeader{
		Kind:   snap.Kind,
		Method: snap.Method,
		Rows:   snap.Rows,
		AIL:    snap.AIL,
	})
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := &snapPayload{Schema: encodeSchema(snap.Schema)}
	switch snap.Kind {
	case KindGeneralized:
		c := snap.Index.Columns()
		p.ECs = make([]snapEC, c.N)
		for i := range p.ECs {
			ec := snapEC{Lo: make([]float64, c.D), Hi: make([]float64, c.D), SACounts: make([]int, c.M), Size: int(c.Sizes[i])}
			for d := range ec.Lo {
				ec.Lo[d], ec.Hi[d] = c.Lo[d][i], c.Hi[d][i]
			}
			for v := range ec.SACounts {
				ec.SACounts[v] = int(c.SACounts[i*c.M+v])
			}
			p.ECs[i] = ec
		}
	case KindAnatomy:
		switch {
		case snap.LDiverse != nil:
			pub := snap.LDiverse
			p.Tuples = encodeTuples(pub.Table)
			p.Groups = make([][]int, len(pub.Groups))
			for i := range pub.Groups {
				p.Groups[i] = pub.Groups[i].Rows
			}
			p.GroupSACounts = pub.SACounts
			p.L = pub.L
		case snap.Baseline != nil:
			p.Tuples = encodeTuples(snap.Baseline.Table)
			p.P = snap.Baseline.P
		}
	case KindPerturbed:
		tb := snap.Tuples
		p.Tuples = &snapTuples{QI: make([][]float64, tb.Len()), SA: make([]int, tb.Len())}
		for i := range p.Tuples.QI {
			p.Tuples.QI[i] = make([]float64, len(tb.QI))
			for j, col := range tb.QI {
				p.Tuples.QI[i][j] = col[i]
			}
			p.Tuples.SA[i] = int(tb.SA[i])
		}
		m := snap.Scheme.Model
		p.Model = &snapModel{
			Beta:          m.Beta,
			Variant:       m.Variant.String(),
			BoundNegative: m.BoundNegative,
			P:             m.P,
		}
	}
	payloadJSON, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return joinSections(version, [][]byte{header, specJSON, payloadJSON})
}

// encodeTuples is the version 1/2 JSON form of a table body.
func encodeTuples(t *microdata.Table) *snapTuples {
	out := &snapTuples{QI: make([][]float64, len(t.Tuples)), SA: make([]int, len(t.Tuples))}
	for i, tp := range t.Tuples {
		out.QI[i] = tp.QI
		out.SA[i] = tp.SA
	}
	return out
}
