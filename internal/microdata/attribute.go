// Package microdata defines the relational model the anonymization schemes
// operate on: a table of tuples with quasi-identifier (QI) attributes and a
// single categorical sensitive attribute (SA), plus equivalence classes and
// the generalized publication format.
//
// Numeric QI values are carried as float64; categorical QI values are
// carried as the pre-order leaf rank in the attribute's generalization
// hierarchy, which doubles as the attribute's coordinate in QI space
// (§4.5 of the paper).
package microdata

import (
	"fmt"
	"math"

	"repro/internal/hierarchy"
)

// Kind distinguishes numeric from categorical QI attributes.
type Kind int

const (
	// Numeric attributes generalize to ranges; information loss follows
	// Eq. 2 of the paper.
	Numeric Kind = iota
	// Categorical attributes generalize along a hierarchy; information
	// loss follows Eq. 3.
	Categorical
)

func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one QI column.
type Attribute struct {
	Name string
	Kind Kind

	// Min and Max bound the domain of a numeric attribute ([L_NA, U_NA]
	// in Eq. 2). Ignored for categorical attributes.
	Min, Max float64

	// Hierarchy is the generalization hierarchy of a categorical
	// attribute. Its leaf count is the domain cardinality. Nil for
	// numeric attributes.
	Hierarchy *hierarchy.Hierarchy
}

// NumericAttr constructs a numeric QI attribute with the given domain.
func NumericAttr(name string, min, max float64) Attribute {
	return Attribute{Name: name, Kind: Numeric, Min: min, Max: max}
}

// CategoricalAttr constructs a categorical QI attribute from a hierarchy.
func CategoricalAttr(name string, h *hierarchy.Hierarchy) Attribute {
	return Attribute{Name: name, Kind: Categorical, Hierarchy: h}
}

// DomainWidth returns the extent of the attribute's domain: U−L for numeric
// attributes, the leaf count for categorical ones. It is the denominator of
// the per-attribute information-loss terms and of QI-space normalization.
func (a Attribute) DomainWidth() float64 {
	if a.Kind == Numeric {
		return a.Max - a.Min
	}
	return float64(a.Hierarchy.NumLeaves())
}

// Cardinality returns the number of distinct raw values the attribute can
// take. For numeric attributes the domain is treated as the integer grid
// [Min, Max] (the paper's CENSUS attributes are all integer-valued).
func (a Attribute) Cardinality() int {
	if a.Kind == Numeric {
		return int(a.Max-a.Min) + 1
	}
	return a.Hierarchy.NumLeaves()
}

// Contains reports whether v is a coordinate of the attribute's domain:
// a finite number in [Min, Max] for a numeric attribute, a leaf rank for
// a categorical one. NaN fails every ordering comparison, so a range
// test alone would let it in, and inside a table it would match every
// range a query or a block's zone map tests. Cheap enough to call per
// value of a decoded column.
func (a *Attribute) Contains(v float64) bool {
	switch a.Kind {
	case Numeric:
		return v >= a.Min && v <= a.Max && !math.IsInf(v, 0)
	case Categorical:
		r := int(v)
		return float64(r) == v && r >= 0 && r < a.Hierarchy.NumLeaves()
	}
	return true
}

// CheckValue is Contains as an error naming the attribute and the value.
// Table.Append and the snapshot decoder's column check both apply it, so
// CSV ingestion, snapshot decode and Table.Validate share one gate.
func (a Attribute) CheckValue(v float64) error {
	if a.Contains(v) {
		return nil
	}
	if a.Kind == Numeric {
		return fmt.Errorf("microdata: %s=%v outside [%v,%v]", a.Name, v, a.Min, a.Max)
	}
	return fmt.Errorf("microdata: %s rank %v invalid", a.Name, v)
}

// Validate checks internal consistency.
func (a Attribute) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("microdata: attribute with empty name")
	}
	switch a.Kind {
	case Numeric:
		if !(a.Max > a.Min) {
			return fmt.Errorf("microdata: attribute %s: empty numeric domain [%v,%v]", a.Name, a.Min, a.Max)
		}
	case Categorical:
		if a.Hierarchy == nil {
			return fmt.Errorf("microdata: attribute %s: categorical without hierarchy", a.Name)
		}
		if a.Hierarchy.NumLeaves() < 2 {
			return fmt.Errorf("microdata: attribute %s: hierarchy needs ≥2 leaves", a.Name)
		}
	default:
		return fmt.Errorf("microdata: attribute %s: unknown kind %v", a.Name, a.Kind)
	}
	return nil
}

// SensitiveAttr describes the sensitive attribute: a categorical domain
// V = {v_1, ..., v_m}. Values are referenced by index throughout.
type SensitiveAttr struct {
	Name   string
	Values []string
}

// CheckIndex reports whether sa is a value index of the domain.
func (s SensitiveAttr) CheckIndex(sa int) error {
	if sa < 0 || sa >= len(s.Values) {
		return fmt.Errorf("microdata: SA index %d outside domain of size %d", sa, len(s.Values))
	}
	return nil
}

// Index returns the index of the given SA value and true, or 0 and false.
func (s SensitiveAttr) Index(value string) (int, bool) {
	for i, v := range s.Values {
		if v == value {
			return i, true
		}
	}
	return 0, false
}

// Schema couples the QI attributes with the sensitive attribute.
type Schema struct {
	QI []Attribute
	SA SensitiveAttr
}

// Validate checks the schema.
func (s *Schema) Validate() error {
	if len(s.QI) == 0 {
		return fmt.Errorf("microdata: schema with no QI attributes")
	}
	seen := make(map[string]bool, len(s.QI)+1)
	for _, a := range s.QI {
		if err := a.Validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("microdata: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if s.SA.Name == "" {
		return fmt.Errorf("microdata: schema with unnamed SA")
	}
	if seen[s.SA.Name] {
		return fmt.Errorf("microdata: SA name %q collides with a QI attribute", s.SA.Name)
	}
	if len(s.SA.Values) < 2 {
		return fmt.Errorf("microdata: SA domain needs ≥2 values, got %d", len(s.SA.Values))
	}
	vseen := make(map[string]bool, len(s.SA.Values))
	for _, v := range s.SA.Values {
		if vseen[v] {
			return fmt.Errorf("microdata: duplicate SA value %q", v)
		}
		vseen[v] = true
	}
	return nil
}

// Project returns a copy of the schema keeping only the first d QI
// attributes; used by the QI-dimensionality sweeps (Fig. 6, Fig. 8c).
func (s *Schema) Project(d int) *Schema {
	if d > len(s.QI) {
		d = len(s.QI)
	}
	return &Schema{QI: append([]Attribute(nil), s.QI[:d]...), SA: s.SA}
}
