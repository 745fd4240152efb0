package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/burel"
	"repro/internal/census"
	"repro/internal/likeness"
	"repro/internal/microdata"
)

func testPartition(t *testing.T) *microdata.Partition {
	t.Helper()
	s := &microdata.Schema{
		QI: []microdata.Attribute{microdata.NumericAttr("x", 0, 10)},
		SA: microdata.SensitiveAttr{Name: "s", Values: []string{"a", "b"}},
	}
	tb := microdata.NewTable(s)
	for i := 0; i < 8; i++ {
		tb.MustAppend(microdata.Tuple{QI: []float64{float64(i)}, SA: i % 2})
	}
	return &microdata.Partition{Table: tb, ECs: []microdata.EC{
		{Rows: []int{0, 1, 2, 3}}, {Rows: []int{4, 5, 6, 7}},
	}}
}

func TestEvaluate(t *testing.T) {
	p := testPartition(t)
	ev := Evaluate("test", p, likeness.EqualEMD, 5*time.Millisecond)
	if ev.Algorithm != "test" || ev.NumECs != 2 || ev.MinECSize != 4 {
		t.Fatalf("basic fields: %+v", ev)
	}
	// Balanced ECs: β = 0, t = 0, ℓ = 2.
	if ev.AchievedBeta != 0 || ev.MaxT != 0 || ev.MinL != 2 {
		t.Fatalf("privacy fields: %+v", ev)
	}
	if ev.AIL < 0 || ev.AIL > 1 {
		t.Fatalf("AIL = %v", ev.AIL)
	}
	s := ev.String()
	for _, want := range []string{"test", "ECs=2", "AIL="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

// TestEvaluateMatchesComponents: Evaluate is the bundling of the
// partition statistics and the likeness measurements; on a real release
// partition each field must agree with its component computed directly.
func TestEvaluateMatchesComponents(t *testing.T) {
	tab := census.Generate(census.Options{N: 2000, Seed: 11}).Project(3)
	res, err := burel.Anonymize(tab, burel.Options{Beta: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partition
	ev := Evaluate("burel", p, likeness.OrderedEMD, 0)
	if ev.NumECs != len(p.ECs) || ev.MinECSize != p.MinECSize() || ev.AIL != p.AIL() {
		t.Fatalf("partition stats diverge: %+v", ev)
	}
	if got := likeness.AchievedBeta(p); ev.AchievedBeta != got {
		t.Fatalf("AchievedBeta %v != %v", ev.AchievedBeta, got)
	}
	maxT, avgT := likeness.AchievedT(p, likeness.OrderedEMD)
	if ev.MaxT != maxT || ev.AvgT != avgT {
		t.Fatalf("t (%v, %v) != (%v, %v)", ev.MaxT, ev.AvgT, maxT, avgT)
	}
	minL, avgL := likeness.AchievedL(p)
	if ev.MinL != minL || ev.AvgL != avgL {
		t.Fatalf("ℓ (%d, %v) != (%d, %v)", ev.MinL, ev.AvgL, minL, avgL)
	}
	if ev.AchievedBeta <= 0 || ev.MinL < 1 || ev.MaxT < ev.AvgT {
		t.Fatalf("implausible measurements: %+v", ev)
	}
}
