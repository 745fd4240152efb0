package microdata

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hierarchy"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	h := hierarchy.MustNew(hierarchy.N("any",
		hierarchy.N("left", hierarchy.N("a"), hierarchy.N("b")),
		hierarchy.N("right", hierarchy.N("c"), hierarchy.N("d")),
	))
	return &Schema{
		QI: []Attribute{
			NumericAttr("age", 0, 100),
			CategoricalAttr("cat", h),
		},
		SA: SensitiveAttr{Name: "disease", Values: []string{"flu", "hiv", "cold"}},
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := &Schema{SA: s.SA}
	if err := bad.Validate(); err == nil {
		t.Error("schema without QI accepted")
	}
	dup := &Schema{QI: []Attribute{NumericAttr("x", 0, 1), NumericAttr("x", 0, 2)}, SA: s.SA}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate QI names accepted")
	}
	collide := &Schema{QI: []Attribute{NumericAttr("disease", 0, 1)}, SA: s.SA}
	if err := collide.Validate(); err == nil {
		t.Error("SA/QI name collision accepted")
	}
	oneSA := &Schema{QI: s.QI, SA: SensitiveAttr{Name: "s", Values: []string{"only"}}}
	if err := oneSA.Validate(); err == nil {
		t.Error("single-value SA accepted")
	}
	dupSA := &Schema{QI: s.QI, SA: SensitiveAttr{Name: "s", Values: []string{"v", "v"}}}
	if err := dupSA.Validate(); err == nil {
		t.Error("duplicate SA values accepted")
	}
	badNum := &Schema{QI: []Attribute{NumericAttr("x", 5, 5)}, SA: s.SA}
	if err := badNum.Validate(); err == nil {
		t.Error("empty numeric domain accepted")
	}
	noH := &Schema{QI: []Attribute{{Name: "c", Kind: Categorical}}, SA: s.SA}
	if err := noH.Validate(); err == nil {
		t.Error("categorical without hierarchy accepted")
	}
}

func TestAttributeHelpers(t *testing.T) {
	s := testSchema(t)
	if got := s.QI[0].DomainWidth(); got != 100 {
		t.Errorf("numeric width = %v", got)
	}
	if got := s.QI[1].DomainWidth(); got != 4 {
		t.Errorf("categorical width = %v", got)
	}
	if got := s.QI[0].Cardinality(); got != 101 {
		t.Errorf("numeric cardinality = %d", got)
	}
	if got := s.QI[1].Cardinality(); got != 4 {
		t.Errorf("categorical cardinality = %d", got)
	}
	if i, ok := s.SA.Index("hiv"); !ok || i != 1 {
		t.Errorf("SA.Index = %d,%v", i, ok)
	}
	if _, ok := s.SA.Index("nope"); ok {
		t.Error("unknown SA value found")
	}
}

func TestAppendValidation(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.Append(Tuple{QI: []float64{50, 1}, SA: 0}); err != nil {
		t.Fatalf("valid append failed: %v", err)
	}
	if err := tb.Append(Tuple{QI: []float64{50}, SA: 0}); err == nil {
		t.Error("short tuple accepted")
	}
	if err := tb.Append(Tuple{QI: []float64{200, 1}, SA: 0}); err == nil {
		t.Error("out-of-domain numeric accepted")
	}
	if err := tb.Append(Tuple{QI: []float64{50, 9}, SA: 0}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if err := tb.Append(Tuple{QI: []float64{50, 1.5}, SA: 0}); err == nil {
		t.Error("fractional rank accepted")
	}
	if err := tb.Append(Tuple{QI: []float64{50, 1}, SA: 5}); err == nil {
		t.Error("out-of-domain SA accepted")
	}
}

func TestSADistribution(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i, sa := range []int{0, 0, 1, 2} {
		tb.MustAppend(Tuple{QI: []float64{float64(i), 0}, SA: sa})
	}
	p := tb.SADistribution()
	want := []float64{0.5, 0.25, 0.25}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("P = %v, want %v", p, want)
		}
	}
	c := tb.SACounts()
	if c[0] != 2 || c[1] != 1 || c[2] != 1 {
		t.Fatalf("counts = %v", c)
	}
	empty := NewTable(tb.Schema)
	for _, v := range empty.SADistribution() {
		if v != 0 {
			t.Fatal("empty table distribution nonzero")
		}
	}
}

func TestProjectAndSample(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 10; i++ {
		tb.MustAppend(Tuple{QI: []float64{float64(i * 10), float64(i % 4)}, SA: i % 3})
	}
	p1 := tb.Project(1)
	if len(p1.Schema.QI) != 1 || len(p1.Tuples[3].QI) != 1 {
		t.Fatal("Project(1) shape wrong")
	}
	if p1.Tuples[3].SA != tb.Tuples[3].SA {
		t.Fatal("Project lost SA")
	}
	// Projection beyond width is clamped.
	if got := tb.Project(99); len(got.Schema.QI) != 2 {
		t.Fatal("over-projection not clamped")
	}
	rng := rand.New(rand.NewSource(1))
	s := tb.Sample(4, rng)
	if s.Len() != 4 {
		t.Fatalf("Sample size = %d", s.Len())
	}
	full := tb.Sample(100, rng)
	if full.Len() != 10 {
		t.Fatalf("oversized Sample = %d", full.Len())
	}
}

func TestECBasics(t *testing.T) {
	tb := NewTable(testSchema(t))
	tb.MustAppend(Tuple{QI: []float64{10, 0}, SA: 0})
	tb.MustAppend(Tuple{QI: []float64{30, 1}, SA: 1})
	tb.MustAppend(Tuple{QI: []float64{20, 3}, SA: 1})
	g := EC{Rows: []int{0, 1, 2}}
	box := g.BoundingBox(tb)
	if box.Lo[0] != 10 || box.Hi[0] != 30 || box.Lo[1] != 0 || box.Hi[1] != 3 {
		t.Fatalf("box = %+v", box)
	}
	q := g.SADistribution(tb)
	if math.Abs(q[1]-2.0/3) > 1e-12 {
		t.Fatalf("q = %v", q)
	}
	// IL: numeric (30-10)/100 = 0.2; categorical spans both subtrees → 1.
	il := g.InformationLoss(tb)
	if math.Abs(il-(0.2+1)/2) > 1e-12 {
		t.Fatalf("IL = %v", il)
	}
	// Single-tuple EC: zero loss.
	g1 := EC{Rows: []int{0}}
	if got := g1.InformationLoss(tb); got != 0 {
		t.Fatalf("singleton IL = %v", got)
	}
}

func TestILCategoricalLCA(t *testing.T) {
	tb := NewTable(testSchema(t))
	tb.MustAppend(Tuple{QI: []float64{10, 0}, SA: 0}) // leaf a
	tb.MustAppend(Tuple{QI: []float64{10, 1}, SA: 1}) // leaf b
	g := EC{Rows: []int{0, 1}}
	// a,b generalize to "left": 2 of 4 leaves → 0.5; numeric degenerate: 0.
	if got := g.InformationLoss(tb); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("IL = %v, want 0.25", got)
	}
}

func TestPartitionValidate(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 4; i++ {
		tb.MustAppend(Tuple{QI: []float64{float64(i), 0}, SA: 0})
	}
	ok := &Partition{Table: tb, ECs: []EC{{Rows: []int{0, 1}}, {Rows: []int{2, 3}}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	dup := &Partition{Table: tb, ECs: []EC{{Rows: []int{0, 1}}, {Rows: []int{1, 2, 3}}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate row accepted")
	}
	missing := &Partition{Table: tb, ECs: []EC{{Rows: []int{0, 1}}}}
	if err := missing.Validate(); err == nil {
		t.Error("missing row accepted")
	}
	empty := &Partition{Table: tb, ECs: []EC{{Rows: nil}, {Rows: []int{0, 1, 2, 3}}}}
	if err := empty.Validate(); err == nil {
		t.Error("empty EC accepted")
	}
	oob := &Partition{Table: tb, ECs: []EC{{Rows: []int{0, 1, 2, 7}}}}
	if err := oob.Validate(); err == nil {
		t.Error("out-of-range row accepted")
	}
}

func TestAILWeighting(t *testing.T) {
	tb := NewTable(testSchema(t))
	// Two tuples at the same point (IL 0) and two spanning the space.
	tb.MustAppend(Tuple{QI: []float64{0, 0}, SA: 0})
	tb.MustAppend(Tuple{QI: []float64{0, 0}, SA: 1})
	tb.MustAppend(Tuple{QI: []float64{0, 0}, SA: 0})
	tb.MustAppend(Tuple{QI: []float64{100, 3}, SA: 1})
	p := &Partition{Table: tb, ECs: []EC{{Rows: []int{0, 1}}, {Rows: []int{2, 3}}}}
	// EC1 IL = 0; EC2 IL = (1 + 1)/2 = 1. AIL = (2·0 + 2·1)/4 = 0.5.
	if got := p.AIL(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AIL = %v, want 0.5", got)
	}
	if got := p.MinECSize(); got != 2 {
		t.Fatalf("MinECSize = %d", got)
	}
}

func TestPublishWidensCategorical(t *testing.T) {
	tb := NewTable(testSchema(t))
	tb.MustAppend(Tuple{QI: []float64{10, 0}, SA: 0}) // a
	tb.MustAppend(Tuple{QI: []float64{20, 2}, SA: 1}) // c
	p := &Partition{Table: tb, ECs: []EC{{Rows: []int{0, 1}}}}
	pub := p.Publish()
	if len(pub) != 1 {
		t.Fatal("publish count")
	}
	// a and c have LCA = root → span widens to [0,3].
	if pub[0].Box.Lo[1] != 0 || pub[0].Box.Hi[1] != 3 {
		t.Fatalf("categorical box not widened: %+v", pub[0].Box)
	}
	if pub[0].SACounts[0] != 1 || pub[0].SACounts[1] != 1 || pub[0].Size != 2 {
		t.Fatalf("SACounts = %v, size %d", pub[0].SACounts, pub[0].Size)
	}
	if !strings.Contains(pub[0].String(), "size=2") {
		t.Errorf("String() = %q", pub[0].String())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable(testSchema(t))
	tb.MustAppend(Tuple{QI: []float64{42, 2}, SA: 1})
	tb.MustAppend(Tuple{QI: []float64{7.5, 0}, SA: 2})
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, tb.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip lost rows: %d", back.Len())
	}
	for i := range tb.Tuples {
		if back.Tuples[i].SA != tb.Tuples[i].SA {
			t.Fatalf("SA mismatch at %d", i)
		}
		for j := range tb.Tuples[i].QI {
			if back.Tuples[i].QI[j] != tb.Tuples[i].QI[j] {
				t.Fatalf("QI mismatch at %d/%d", i, j)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := testSchema(t)
	cases := []string{
		"age,cat\n1,a\n",                 // missing SA column
		"age,cat,disease\nx,a,flu\n",     // non-numeric
		"age,cat,disease\n1,zzz,flu\n",   // unknown categorical leaf
		"age,cat,disease\n1,a,unknown\n", // unknown SA value
		"age,cat,disease\n1,left,flu\n",  // internal node as value
		"age,cat,disease\n999,a,flu\n",   // out of numeric domain
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), s); err == nil {
			t.Errorf("ReadCSV accepted %q", c)
		}
	}
}

// TestReadCSVRejectsNonFinite: strconv.ParseFloat accepts "NaN" and
// "Inf", and NaN fails every ordering comparison, so a plain range check
// let it in; inside the table it would match every range predicate.
// Table.Append, the gate CSV ingestion shares with snapshot decode,
// refuses non-finite numeric values by name.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	s := testSchema(t)
	for _, v := range []string{"NaN", "nan", "+Inf", "-Inf"} {
		in := "age,cat,disease\n5,a,flu\n" + v + ",a,flu\n"
		if _, err := ReadCSV(strings.NewReader(in), s); err == nil {
			t.Errorf("ReadCSV accepted age %s", v)
		}
	}
	tab := NewTable(s)
	if err := tab.Append(Tuple{QI: []float64{math.NaN(), 0}, SA: 0}); err == nil {
		t.Error("Append accepted a NaN age")
	}
}

func TestWriteGeneralizedCSV(t *testing.T) {
	tb := NewTable(testSchema(t))
	tb.MustAppend(Tuple{QI: []float64{10, 0}, SA: 0})
	tb.MustAppend(Tuple{QI: []float64{30, 1}, SA: 1})
	p := &Partition{Table: tb, ECs: []EC{{Rows: []int{0, 1}}}}
	var buf bytes.Buffer
	if err := WriteGeneralizedCSV(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[10-30]") {
		t.Errorf("numeric range missing: %s", out)
	}
	if !strings.Contains(out, "left") {
		t.Errorf("generalized label missing: %s", out)
	}
	if !strings.Contains(out, "flu") || !strings.Contains(out, "hiv") {
		t.Errorf("SA values missing: %s", out)
	}
}

func TestTableValidateAndClone(t *testing.T) {
	tb := NewTable(testSchema(t))
	tb.MustAppend(Tuple{QI: []float64{1, 1}, SA: 0})
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	c := tb.Clone()
	c.Tuples[0].QI[0] = 99
	if tb.Tuples[0].QI[0] == 99 {
		t.Fatal("Clone is shallow")
	}
	tb.Tuples[0].QI[0] = -5 // corrupt
	if err := tb.Validate(); err == nil {
		t.Fatal("corrupted table passed Validate")
	}
}

func TestSortECsBySize(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 5; i++ {
		tb.MustAppend(Tuple{QI: []float64{float64(i), 0}, SA: 0})
	}
	p := &Partition{Table: tb, ECs: []EC{{Rows: []int{4}}, {Rows: []int{0, 1, 2}}, {Rows: []int{3}}}}
	p.SortECsBySize()
	if len(p.ECs[0].Rows) != 3 {
		t.Fatal("not sorted by size")
	}
	if p.ECs[1].Rows[0] != 3 || p.ECs[2].Rows[0] != 4 {
		t.Fatal("tie-break by first row failed")
	}
}
