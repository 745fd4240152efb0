package anon_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/anon"
	"repro/internal/census"
)

// TestSABRERegistered: SABRE is a full registry citizen — listed,
// default-params-minting, wire-decodable — and produces a generalized
// release the shared estimator can answer.
func TestSABRERegistered(t *testing.T) {
	found := false
	for _, name := range anon.Methods() {
		if name == anon.MethodSABRE {
			found = true
		}
	}
	if !found {
		t.Fatalf("sabre not registered: %v", anon.Methods())
	}
	p, err := anon.NewParams(anon.MethodSABRE)
	if err != nil {
		t.Fatal(err)
	}
	if sp := p.(*anon.SABREParams); sp.T != anon.DefaultT {
		t.Fatalf("default t = %v, want %v", sp.T, anon.DefaultT)
	}
	// Wire round-trip with unknown-field rejection.
	wp, err := anon.UnmarshalParams(anon.MethodSABRE, []byte(`{"t":0.1,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp := wp.(*anon.SABREParams); sp.T != 0.1 || sp.Seed != 7 {
		t.Fatalf("decoded params %+v", sp)
	}
	if _, err := anon.UnmarshalParams(anon.MethodSABRE, []byte(`{"beta":4}`)); err == nil {
		t.Fatal("foreign param field accepted")
	}
	if _, err := anon.UnmarshalParams(anon.MethodSABRE, []byte(`{"t":-1}`)); err == nil {
		t.Fatal("negative t accepted")
	}

	tab := census.Generate(census.Options{N: 600, Seed: 11}).Project(3)
	rel, err := anon.Anonymize(context.Background(), tab, anon.NewSABREParams(anon.SABRET(0.15), anon.SABRESeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Method != anon.MethodSABRE || rel.ECs == nil || rel.NumECs() == 0 {
		t.Fatalf("release method=%q ecs=%d", rel.Method, rel.NumECs())
	}
	total, err := rel.Estimate(anon.Query{SALo: 0, SAHi: len(tab.Schema.SA.Values) - 1})
	if err != nil {
		t.Fatal(err)
	}
	if total < float64(tab.Len())*0.99 || total > float64(tab.Len())*1.01 {
		t.Fatalf("full-domain estimate %v over %d rows", total, tab.Len())
	}

	// Deterministic for a fixed seed: identical EC counts and AIL.
	rel2, err := anon.Anonymize(context.Background(), tab, anon.NewSABREParams(anon.SABRET(0.15), anon.SABRESeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if rel2.NumECs() != rel.NumECs() || rel2.AIL != rel.AIL {
		t.Fatalf("re-run differs: %d/%v vs %d/%v", rel2.NumECs(), rel2.AIL, rel.NumECs(), rel.AIL)
	}

	// Params JSON round-trips through the typed form.
	raw, err := json.Marshal(anon.NewSABREParams(anon.SABRET(0.2), anon.SABREHilbertBits(8)))
	if err != nil {
		t.Fatal(err)
	}
	back, err := anon.UnmarshalParams(anon.MethodSABRE, raw)
	if err != nil {
		t.Fatal(err)
	}
	if sp := back.(*anon.SABREParams); sp.T != 0.2 || sp.HilbertBits != 8 {
		t.Fatalf("round-trip %+v", sp)
	}
}

// TestSABREHilbertBitsCapped: every hilbert_bits that Validate accepts
// runs. On a one-QI table, 33–63 bits pass the curve's 32-bit coordinate
// limit; the mapper caps them at 32, as it caps d·bits at 63 on wider
// tables, so they publish what 32 bits publish.
func TestSABREHilbertBitsCapped(t *testing.T) {
	tab := census.Generate(census.Options{N: 600, Seed: 11}).Project(1)
	run := func(bits int) *anon.Release {
		t.Helper()
		rel, err := anon.Anonymize(context.Background(), tab, anon.NewSABREParams(anon.SABRET(0.2), anon.SABREHilbertBits(bits)))
		if err != nil {
			t.Fatalf("hilbert_bits %d: %v", bits, err)
		}
		return rel
	}
	want := run(32)
	for _, bits := range []int{33, 40, 63} {
		if got := run(bits); !reflect.DeepEqual(got.ECs, want.ECs) {
			t.Errorf("hilbert_bits %d: %d ECs differ from 32 bits' %d", bits, got.NumECs(), want.NumECs())
		}
	}
}
