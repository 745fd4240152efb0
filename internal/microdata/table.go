package microdata

import (
	"fmt"
	"math/rand"
)

// Tuple is one microdata record: QI coordinates plus an SA value index.
// Numeric attributes store their value directly; categorical attributes
// store the pre-order leaf rank in their hierarchy.
type Tuple struct {
	QI []float64
	SA int
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	return Tuple{QI: append([]float64(nil), t.QI...), SA: t.SA}
}

// Table is an in-memory microdata table.
type Table struct {
	Schema *Schema
	Tuples []Tuple
}

// NewTable allocates an empty table over the schema.
func NewTable(s *Schema) *Table {
	return &Table{Schema: s}
}

// Len returns |DB|.
func (t *Table) Len() int { return len(t.Tuples) }

// Append adds a tuple after validating it against the schema.
func (t *Table) Append(tp Tuple) error {
	if len(tp.QI) != len(t.Schema.QI) {
		return fmt.Errorf("microdata: tuple has %d QI values, schema has %d", len(tp.QI), len(t.Schema.QI))
	}
	for i, a := range t.Schema.QI {
		if err := a.CheckValue(tp.QI[i]); err != nil {
			return err
		}
	}
	if err := t.Schema.SA.CheckIndex(tp.SA); err != nil {
		return err
	}
	t.Tuples = append(t.Tuples, tp)
	return nil
}

// MustAppend is Append but panics on error; for tests and generators.
func (t *Table) MustAppend(tp Tuple) {
	if err := t.Append(tp); err != nil {
		panic(err)
	}
}

// SACounts returns N_i, the number of tuples carrying each SA value.
func (t *Table) SACounts() []int {
	counts := make([]int, len(t.Schema.SA.Values))
	for _, tp := range t.Tuples {
		counts[tp.SA]++
	}
	return counts
}

// SADistribution returns P = (p_1, ..., p_m), the overall SA distribution
// in the table (Table 2 of the paper). Values absent from the table get
// frequency 0.
func (t *Table) SADistribution() []float64 {
	p := make([]float64, len(t.Schema.SA.Values))
	if len(t.Tuples) == 0 {
		return p
	}
	inv := 1 / float64(len(t.Tuples))
	for _, tp := range t.Tuples {
		p[tp.SA] += inv
	}
	return p
}

// Project returns a new table keeping only the first d QI attributes.
// Tuples are copied; the SA column is preserved.
func (t *Table) Project(d int) *Table {
	if d > len(t.Schema.QI) {
		d = len(t.Schema.QI)
	}
	out := NewTable(t.Schema.Project(d))
	out.Tuples = make([]Tuple, len(t.Tuples))
	for i, tp := range t.Tuples {
		out.Tuples[i] = Tuple{QI: append([]float64(nil), tp.QI[:d]...), SA: tp.SA}
	}
	return out
}

// Sample returns a new table with n tuples drawn without replacement using
// rng. If n ≥ Len, the whole table is copied. Used by the |DB| sweeps.
func (t *Table) Sample(n int, rng *rand.Rand) *Table {
	out := NewTable(t.Schema)
	if n >= len(t.Tuples) {
		out.Tuples = append([]Tuple(nil), t.Tuples...)
		return out
	}
	idx := rng.Perm(len(t.Tuples))[:n]
	out.Tuples = make([]Tuple, n)
	for i, j := range idx {
		out.Tuples[i] = t.Tuples[j]
	}
	return out
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := NewTable(t.Schema)
	out.Tuples = make([]Tuple, len(t.Tuples))
	for i, tp := range t.Tuples {
		out.Tuples[i] = tp.Clone()
	}
	return out
}

// Validate re-checks every tuple against the schema.
func (t *Table) Validate() error {
	if err := t.Schema.Validate(); err != nil {
		return err
	}
	probe := NewTable(t.Schema)
	for i, tp := range t.Tuples {
		if err := probe.Append(tp); err != nil {
			return fmt.Errorf("tuple %d: %w", i, err)
		}
		probe.Tuples = probe.Tuples[:0]
	}
	return nil
}

// QIValueString renders the raw value of QI attribute a for tuple index
// position v (numeric: the number; categorical: the leaf label).
func (t *Table) QIValueString(attr int, v float64) string {
	a := t.Schema.QI[attr]
	if a.Kind == Numeric {
		return trimFloat(v)
	}
	return a.Hierarchy.Leaf(int(v)).Label
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
