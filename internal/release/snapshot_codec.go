package release

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/anatomy"
	"repro/internal/durable"
	"repro/internal/hierarchy"
	"repro/internal/likeness"
	"repro/internal/microdata"
	"repro/internal/perturb"
)

// Snapshot wire format (version 3). A snapshot file is the durable form
// of one ready release: everything the matching estimator needs, and
// nothing more (the pre-publication Partition of a generalized release is
// serving-irrelevant and is not persisted). It is a durable.Frame with
// magic "RPROSNAP" and four sections:
//
//	section 1  header JSON  {kind, method, rows, ail}
//	section 2  spec JSON    (the typed Spec wire form)
//	section 3  payload JSON (schema + small per-kind estimator state)
//	section 4  binary columnar row data (layout below)
//
// Section 4 carries the bulk row data that versions 1 and 2 shipped as
// JSON arrays inside the payload — the decode hot path of a cold start.
// Everything in it is little-endian:
//
//	flags      1 byte: bit0 = EC block present, bit1 = tuple block
//	           present; any other bit set is corrupt
//	EC block   u32 N, D, M; then D lo columns, D hi columns (each a u32
//	           element count followed by N float64 bits), the sizes
//	           column (u32 count + N u32), and the SA counts (u32 count
//	           + N·M u32, row-major)
//	tuple blk  u32 R, D; then D QI columns (u32 count + R float64 bits)
//	           and the SA column (u32 count + R u32)
//
// The per-column count prefixes are redundant with N/R by construction;
// the decoder checks them so truncation or splicing inside the section is
// caught at the exact column, not as a checksum-only failure. Small
// per-kind state (the anatomy group lists, the perturbation model, the
// baseline distribution) stays in payload JSON where evolvability beats
// the few hundred bytes saved.
//
// All JSON is produced by encoding/json over fixed struct shapes and the
// binary section is written in one deterministic pass, so encoding is
// byte-deterministic for a given snapshot: golden files pin it, and any
// change to the emitted bytes is a conscious format version bump.
// Decoding rejects corrupt or truncated input with an error wrapping
// ErrCorruptSnapshot — never a panic — and rebuilds the derived state
// (SA prefix sums, the grid index, the calibrated perturbation scheme)
// rather than persisting it. The EC block is read straight into the
// serving store, a microdata.ECColumns, and written from it.
const (
	snapshotMagic = "RPROSNAP"
	// SnapshotFormatVersion is the current wire format version. Version 3
	// moves the row data (EC boxes + SA counts, table tuples) out of the
	// payload JSON into a binary columnar section: float64 bits instead of
	// decimal text, columns instead of per-row objects, which is what makes
	// cold-start decode a memory copy instead of a JSON parse. Versions 1
	// and 2 (JSON rows; 2 marked the writer as aggregate-aware) are still
	// decoded.
	SnapshotFormatVersion = 3
	// minSnapshotFormatVersion is the oldest version DecodeSnapshot still
	// reads.
	minSnapshotFormatVersion = 1
)

// snapshotFrame is the snapshot's envelope: versions 1 and 2 carry three
// all-JSON sections, version 3 adds the binary columnar one.
var snapshotFrame = durable.Frame{
	Magic:      snapshotMagic,
	MaxSection: 1 << 31,
	Corrupt:    ErrCorruptSnapshot,
	Sections: func(v uint32) (int, error) {
		if v < minSnapshotFormatVersion || v > SnapshotFormatVersion {
			return 0, fmt.Errorf("%w: %d (this build reads %d..%d)", ErrSnapshotVersion, v, minSnapshotFormatVersion, SnapshotFormatVersion)
		}
		if v < 3 {
			return 3, nil
		}
		return 4, nil
	},
}

// Binary section flags (version ≥3).
const (
	binFlagECs    = 1 << 0
	binFlagTuples = 1 << 1
)

// Typed codec errors. Decode failures wrap exactly one of these, so
// recovery can distinguish "not a snapshot / damaged" from "a snapshot
// from a future format".
var (
	// ErrCorruptSnapshot reports input that is not a well-formed snapshot
	// of the supported version: bad magic, truncation, checksum mismatch,
	// malformed JSON, or payload inconsistent with the schema.
	ErrCorruptSnapshot = errors.New("corrupt snapshot")
	// ErrSnapshotVersion reports a snapshot with a valid magic but a
	// format version this build does not understand.
	ErrSnapshotVersion = errors.New("unsupported snapshot format version")
)

// snapHeader is section 1: the release identity-free summary.
type snapHeader struct {
	Kind   Kind    `json:"kind"`
	Method string  `json:"method"`
	Rows   int     `json:"rows"`
	AIL    float64 `json:"ail"`
}

// snapAttr serializes one QI attribute. Categorical hierarchies travel in
// hierarchy.Parse's textual format, which String round-trips exactly.
type snapAttr struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"` // "numeric" | "categorical"
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	Hierarchy string  `json:"hierarchy,omitempty"`
}

type snapSchema struct {
	QI       []snapAttr `json:"qi"`
	SAName   string     `json:"sa_name"`
	SAValues []string   `json:"sa_values"`
}

// snapEC is one published equivalence class of a version 1/2 payload;
// its SA prefix sums are derived state, rebuilt on decode.
type snapEC struct {
	Lo       []float64 `json:"lo"`
	Hi       []float64 `json:"hi"`
	SACounts []int     `json:"sa_counts"`
	Size     int       `json:"size"`
}

// snapTuples is a column-major table body; the schema travels separately.
type snapTuples struct {
	QI [][]float64 `json:"qi"`
	SA []int       `json:"sa"`
}

// snapModel is the β-likeness model a perturbation scheme is calibrated
// from. The scheme itself (γ, α, PM, PM⁻¹) is derived state: rebuilt by
// perturb.NewSchemeFromModel on decode, deterministically.
type snapModel struct {
	Beta          float64   `json:"beta"`
	Variant       string    `json:"variant"` // "enhanced" | "basic"
	BoundNegative bool      `json:"bound_negative,omitempty"`
	P             []float64 `json:"p"`
}

// snapPayload is section 3. Exactly one payload group is populated,
// matching the header kind: ECs (generalized), Tuples+P (anatomy
// baseline), Tuples+Groups+GroupSACounts+L (anatomy ℓ-diverse), or
// Tuples+Model (perturbed).
type snapPayload struct {
	Schema snapSchema `json:"schema"`

	ECs []snapEC `json:"ecs,omitempty"`

	Tuples *snapTuples `json:"tuples,omitempty"`

	P []float64 `json:"p,omitempty"`

	Groups        [][]int `json:"groups,omitempty"`
	GroupSACounts [][]int `json:"group_sa_counts,omitempty"`
	L             int     `json:"l,omitempty"`

	Model *snapModel `json:"model,omitempty"`
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// EncodeSnapshot serializes a ready release's snapshot and the spec it
// was built from into the current wire format. The spec rides along so
// a decoded snapshot can be re-registered with full metadata and so the
// grid index is rebuilt at the resolution the release was served at.
func EncodeSnapshot(snap *Snapshot, spec Spec) ([]byte, error) {
	payload, columns, err := encodePayload(snap)
	if err != nil {
		return nil, err
	}
	header, err := json.Marshal(snapHeader{
		Kind:   snap.Kind,
		Method: snap.Method,
		Rows:   snap.Rows,
		AIL:    snap.AIL,
	})
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	payloadJSON, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	// A section past the frame's cap must fail the build loudly, not
	// persist a file that every restart will demote to corrupt.
	out, err := snapshotFrame.Encode(SnapshotFormatVersion, header, specJSON, payloadJSON, columns)
	if err != nil {
		return nil, fmt.Errorf("release: encoding snapshot: %w", err)
	}
	return out, nil
}

// encodePayload projects the snapshot onto its wire payload: the JSON
// section for small per-kind state and the binary columnar section for
// the row data. The binary section is allocated once, at its final
// length, so the column appenders never regrow it.
func encodePayload(snap *Snapshot) (*snapPayload, []byte, error) {
	if err := checkRegistrable(snap); err != nil {
		return nil, nil, err
	}
	p := &snapPayload{Schema: encodeSchema(snap.Schema)}
	var columns []byte
	var err error
	switch snap.Kind {
	case KindGeneralized:
		c := snap.Index.Columns()
		if c.D != len(snap.Schema.QI) || c.M != len(snap.Schema.SA.Values) {
			return nil, nil, fmt.Errorf("release: EC store spans %d dims and %d SA values, schema %d and %d", c.D, c.M, len(snap.Schema.QI), len(snap.Schema.SA.Values))
		}
		columns = appendECColumns(append(make([]byte, 0, 1+ecColumnsLen(c.N, c.D, c.M)), binFlagECs), c)
	case KindAnatomy:
		var tab *microdata.Table
		if pub := snap.LDiverse; pub != nil {
			tab = pub.Table
			p.Groups = make([][]int, len(pub.Groups))
			for i := range pub.Groups {
				p.Groups[i] = pub.Groups[i].Rows
			}
			p.GroupSACounts = pub.SACounts
			p.L = pub.L
		} else {
			tab = snap.Baseline.Table
			p.P = snap.Baseline.P
		}
		c, err := tableColumns(tab)
		if err != nil {
			return nil, nil, err
		}
		columns = append(make([]byte, 0, 1+tupleColumnsLen(len(c.sa), len(c.qi))), binFlagTuples)
		if columns, err = appendTupleColumns(columns, c.qi, c.sa); err != nil {
			return nil, nil, err
		}
	case KindPerturbed:
		m := snap.Scheme.Model
		p.Model = &snapModel{
			Beta:          m.Beta,
			Variant:       m.Variant.String(),
			BoundNegative: m.BoundNegative,
			P:             m.P,
		}
		if len(snap.Tuples.QI) != len(snap.Schema.QI) {
			return nil, nil, fmt.Errorf("release: tuple blocks span %d dims, schema has %d", len(snap.Tuples.QI), len(snap.Schema.QI))
		}
		columns = append(make([]byte, 0, 1+tupleColumnsLen(len(snap.Tuples.SA), len(snap.Tuples.QI))), binFlagTuples)
		if columns, err = appendTupleColumns(columns, snap.Tuples.QI, snap.Tuples.SA); err != nil {
			return nil, nil, err
		}
	}
	return p, columns, nil
}

// ecColumnsLen is the byte length appendECColumns writes for n ECs over
// d QI dimensions and an m-value SA domain: the three-count header, the
// counted Lo and Hi columns of every dimension, the counted size column
// and the counted n×m SA count column.
func ecColumnsLen(n, d, m int) int {
	return 12 + 2*d*(4+8*n) + (4 + 4*n) + (4 + 4*n*m)
}

// tupleColumnsLen is the byte length appendTupleColumns writes for rows
// tuples over d QI columns: the two-count header, the counted QI columns
// and the counted SA column.
func tupleColumnsLen(rows, d int) int {
	return 8 + d*(4+8*rows) + (4 + 4*rows)
}

// appendECColumns serializes the EC store into the binary columnar form.
// Its sizes and counts are non-negative int32s, which the u32 wire type
// holds: BuildECColumns refused any other value where rows became
// columns, and the decoder refuses them on read.
func appendECColumns(out []byte, c *microdata.ECColumns) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(c.N))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.D))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.M))
	for _, bounds := range [][][]float64{c.Lo, c.Hi} {
		for _, col := range bounds {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(col)))
			for _, v := range col {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
	}
	for _, col := range [][]int32{c.Sizes, c.SACounts} {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(col)))
		for _, v := range col {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
	}
	return out
}

// appendTupleColumns serializes a table body held as QI columns plus an
// SA column, in the order given.
func appendTupleColumns(out []byte, qi [][]float64, sa []int32) ([]byte, error) {
	r := len(sa)
	out = binary.LittleEndian.AppendUint32(out, uint32(r))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(qi)))
	for j, col := range qi {
		if len(col) != r {
			return nil, fmt.Errorf("release: QI column %d has %d rows, SA column %d", j, len(col), r)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(r))
		for _, v := range col {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(r))
	for i, v := range sa {
		if v < 0 {
			return nil, fmt.Errorf("release: tuple %d SA index %d does not fit the u32 wire type", i, v)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out, nil
}

func encodeSchema(s *microdata.Schema) snapSchema {
	out := snapSchema{
		QI:       make([]snapAttr, len(s.QI)),
		SAName:   s.SA.Name,
		SAValues: s.SA.Values,
	}
	for i, a := range s.QI {
		sa := snapAttr{Name: a.Name, Kind: a.Kind.String()}
		if a.Kind == microdata.Numeric {
			sa.Min, sa.Max = a.Min, a.Max
		} else {
			sa.Hierarchy = a.Hierarchy.String()
		}
		out.QI[i] = sa
	}
	return out
}

// DecodeSnapshot parses and validates a snapshot of any supported
// format version (currently 1..3; 1 and 2 carry the row data as JSON,
// 3 as binary columns), returning the queryable snapshot (grid index, SA
// prefix sums, and perturbation scheme rebuilt) plus the spec it was
// encoded with. Version 3 rows keep their stored order; version 1 and 2
// ECs are put into canonical order as they become columns. Malformed
// input of any shape yields an error wrapping ErrCorruptSnapshot (or
// ErrSnapshotVersion for a future format); it never panics.
func DecodeSnapshot(data []byte) (*Snapshot, Spec, error) {
	v, sections, err := snapshotFrame.Decode(data)
	if err != nil {
		return nil, Spec{}, err
	}
	var header snapHeader
	if err := json.Unmarshal(sections[0], &header); err != nil {
		return nil, Spec{}, corrupt("header: %v", err)
	}
	var spec Spec
	if err := json.Unmarshal(sections[1], &spec); err != nil {
		// A spec whose params no longer resolve (its method was
		// unregistered or renamed since encoding) must not fail the
		// snapshot: the payload carries everything the kind-dispatched
		// estimator needs, so keep the store-level knobs and drop the
		// params — the same tolerance recovery applies to manifest
		// metadata. Structurally broken JSON is still corrupt.
		var w struct {
			Method    string `json:"method"`
			QI        int    `json:"qi"`
			GridCells int    `json:"grid_cells"`
		}
		if jerr := json.Unmarshal(sections[1], &w); jerr != nil {
			return nil, Spec{}, corrupt("spec: %v", err)
		}
		spec = Spec{Method: w.Method, QI: w.QI, GridCells: w.GridCells}
	}
	var payload snapPayload
	if err := json.Unmarshal(sections[2], &payload); err != nil {
		return nil, Spec{}, corrupt("payload: %v", err)
	}

	schema, err := decodeSchema(payload.Schema)
	if err != nil {
		return nil, Spec{}, err
	}
	if header.Rows < 0 || !isFinite(header.AIL) {
		return nil, Spec{}, corrupt("header rows=%d ail=%v", header.Rows, header.AIL)
	}

	// Version ≥3 carries the row data only in the binary section: a payload
	// JSON that also smuggles ecs/tuples would leave two sources of truth,
	// so it is rejected rather than silently preferring one. Older
	// versions' JSON tuples are brought into the same column form.
	var binECs *microdata.ECColumns
	var tuples *tupleCols
	if v >= 3 {
		if payload.ECs != nil || payload.Tuples != nil {
			return nil, Spec{}, corrupt("version %d payload JSON carries row data that belongs in the binary section", v)
		}
		if binECs, tuples, err = decodeColumns(sections[3], schema); err != nil {
			return nil, Spec{}, err
		}
	} else if payload.Tuples != nil {
		if tuples, err = jsonTupleColumns(payload.Tuples, len(schema.QI)); err != nil {
			return nil, Spec{}, err
		}
	}

	snap := &Snapshot{Kind: header.Kind, Schema: schema, Method: header.Method, Rows: header.Rows, AIL: header.AIL}
	switch header.Kind {
	case KindGeneralized:
		cols := binECs
		if v >= 3 {
			if tuples != nil {
				return nil, Spec{}, corrupt("generalized snapshot carries a tuple block")
			}
			if cols == nil {
				return nil, Spec{}, corrupt("generalized snapshot without an EC block")
			}
		} else if cols, err = decodeECs(payload.ECs, schema); err != nil {
			return nil, Spec{}, err
		}
		snap.Index = BuildIndex(schema, cols, spec.GridCells)
	case KindAnatomy:
		if binECs != nil {
			return nil, Spec{}, corrupt("anatomy snapshot carries an EC block")
		}
		if err := decodeAnatomy(&payload, tuples, schema, snap); err != nil {
			return nil, Spec{}, err
		}
	case KindPerturbed:
		if binECs != nil {
			return nil, Spec{}, corrupt("perturbed snapshot carries an EC block")
		}
		if err := decodePerturbed(&payload, tuples, schema, snap); err != nil {
			return nil, Spec{}, err
		}
	default:
		return nil, Spec{}, corrupt("unknown kind %q", header.Kind)
	}
	return snap, spec, nil
}

// colReader cursors over the binary columnar section. Every read is
// bounds-checked; a short section yields a corrupt error naming the field
// being read, never a slice panic.
type colReader struct {
	data []byte
	off  int
}

func (r *colReader) u32(what string) (int, error) {
	if len(r.data)-r.off < 4 {
		return 0, corrupt("binary section truncated reading %s", what)
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	if int32(v) < 0 {
		return 0, corrupt("binary %s %d overflows int32", what, v)
	}
	return int(v), nil
}

// f64col reads one length-prefixed float64 column into dst, which fixes
// the element count the prefix must declare.
func (r *colReader) f64col(dst []float64, what string) error {
	n := len(dst)
	c, err := r.u32(what + " length")
	if err != nil {
		return err
	}
	if c != n {
		return corrupt("binary %s declares %d elements, want %d", what, c, n)
	}
	if int64(len(r.data)-r.off) < int64(n)*8 {
		return corrupt("binary section truncated inside %s: %d of %d bytes", what, len(r.data)-r.off, int64(n)*8)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off+8*i:]))
	}
	r.off += 8 * n
	return nil
}

// u32col reads one length-prefixed u32 column into dst, which fixes the
// element count the prefix must declare. Elements above MaxInt32 are
// corrupt (they could not have been written from int32 columns).
func (r *colReader) u32col(dst []int32, what string) error {
	n := len(dst)
	c, err := r.u32(what + " length")
	if err != nil {
		return err
	}
	if c != n {
		return corrupt("binary %s declares %d elements, want %d", what, c, n)
	}
	if int64(len(r.data)-r.off) < int64(n)*4 {
		return corrupt("binary section truncated inside %s: %d of %d bytes", what, len(r.data)-r.off, int64(n)*4)
	}
	for i := range dst {
		v := int32(binary.LittleEndian.Uint32(r.data[r.off+4*i:]))
		if v < 0 {
			return corrupt("binary %s element %d = %d overflows int32", what, i, uint32(v))
		}
		dst[i] = v
	}
	r.off += 4 * n
	return nil
}

// decodeColumns parses the version-3 binary section into whichever row
// blocks its flags declare. The section must be consumed exactly: bytes
// past the declared blocks mean a splice, not padding.
func decodeColumns(bin []byte, schema *microdata.Schema) (*microdata.ECColumns, *tupleCols, error) {
	if len(bin) == 0 {
		return nil, nil, corrupt("binary section is empty")
	}
	flags := bin[0]
	if flags&^byte(binFlagECs|binFlagTuples) != 0 {
		return nil, nil, corrupt("binary section flags %#02x set unknown bits", flags)
	}
	r := &colReader{data: bin, off: 1}
	var ecs *microdata.ECColumns
	var tuples *tupleCols
	var err error
	if flags&binFlagECs != 0 {
		if ecs, err = readECColumns(r, schema); err != nil {
			return nil, nil, err
		}
	}
	if flags&binFlagTuples != 0 {
		if tuples, err = readTupleColumns(r, schema); err != nil {
			return nil, nil, err
		}
	}
	if r.off != len(bin) {
		return nil, nil, corrupt("%d trailing bytes after the binary blocks", len(bin)-r.off)
	}
	return ecs, tuples, nil
}

// readECColumns reads the EC block straight into the serving store, in
// stored order: the wire's lo, hi, size and count columns land in the
// store's own columns, and the prefix sums are derived from the counts.
func readECColumns(r *colReader, schema *microdata.Schema) (*microdata.ECColumns, error) {
	n, err := r.u32("EC count")
	if err != nil {
		return nil, err
	}
	d, err := r.u32("EC dims")
	if err != nil {
		return nil, err
	}
	m, err := r.u32("EC SA domain")
	if err != nil {
		return nil, err
	}
	if d != len(schema.QI) {
		return nil, corrupt("EC block spans %d dims, schema has %d", d, len(schema.QI))
	}
	if m != len(schema.SA.Values) {
		return nil, corrupt("EC block has SA domain %d, schema has %d", m, len(schema.SA.Values))
	}
	// Bound the claimed N by the bytes actually present before sizing any
	// column: a hostile count must fail here, not in make.
	need := int64(2*d)*(4+8*int64(n)) + 4 + 4*int64(n) + 4 + 4*int64(n)*int64(m)
	if rem := int64(len(r.data) - r.off); need > rem {
		return nil, corrupt("EC block claims %d ECs needing %d bytes, %d remain", n, need, rem)
	}
	c := microdata.NewECColumns(n, d, m)
	for j, col := range c.Lo {
		if err := r.f64col(col, fmt.Sprintf("lo column %d", j)); err != nil {
			return nil, err
		}
	}
	for j, col := range c.Hi {
		if err := r.f64col(col, fmt.Sprintf("hi column %d", j)); err != nil {
			return nil, err
		}
	}
	if err := r.u32col(c.Sizes, "sizes column"); err != nil {
		return nil, err
	}
	if err := r.u32col(c.SACounts, "SA counts"); err != nil {
		return nil, err
	}
	if err := c.DerivePrefix(); err != nil {
		return nil, corrupt("%v", err)
	}
	return c, checkECs(c)
}

// checkECs holds a decoded EC store to what a published EC is: every box
// interval finite and ordered, every size positive and equal to the sum
// of its SA counts.
func checkECs(c *microdata.ECColumns) error {
	for j := range c.Lo {
		for i, lo := range c.Lo[j] {
			if hi := c.Hi[j][i]; !isFinite(lo) || !isFinite(hi) || lo > hi {
				return corrupt("EC %d dim %d has bad interval [%v,%v]", i, j, lo, hi)
			}
		}
	}
	for i, size := range c.Sizes {
		if sum := c.SAPrefix[i*(c.M+1)+c.M]; sum != size || size <= 0 {
			return corrupt("EC %d size %d disagrees with SA counts summing to %d", i, size, sum)
		}
	}
	return nil
}

// readTupleColumns reads a tuple block into columns, in stored order.
func readTupleColumns(r *colReader, schema *microdata.Schema) (*tupleCols, error) {
	rows, err := r.u32("row count")
	if err != nil {
		return nil, err
	}
	d, err := r.u32("tuple dims")
	if err != nil {
		return nil, err
	}
	if d != len(schema.QI) {
		return nil, corrupt("tuple block spans %d dims, schema has %d", d, len(schema.QI))
	}
	need := int64(d)*(4+8*int64(rows)) + 4 + 4*int64(rows)
	if rem := int64(len(r.data) - r.off); need > rem {
		return nil, corrupt("tuple block claims %d rows needing %d bytes, %d remain", rows, need, rem)
	}
	out := newTupleCols(rows, d)
	for j, col := range out.qi {
		if err := r.f64col(col, fmt.Sprintf("QI column %d", j)); err != nil {
			return nil, err
		}
	}
	if err := r.u32col(out.sa, "SA column"); err != nil {
		return nil, err
	}
	return out, nil
}

// jsonTupleColumns brings a version 1/2 JSON table body into column form.
func jsonTupleColumns(in *snapTuples, d int) (*tupleCols, error) {
	if len(in.QI) != len(in.SA) {
		return nil, corrupt("tuple columns disagree: %d QI rows, %d SA rows", len(in.QI), len(in.SA))
	}
	out := newTupleCols(len(in.SA), d)
	for i, row := range in.QI {
		if len(row) != d {
			return nil, corrupt("tuple %d spans %d dims, schema has %d", i, len(row), d)
		}
		for j, v := range row {
			out.qi[j][i] = v
		}
		sa := in.SA[i]
		if sa < 0 || int64(sa) > math.MaxInt32 {
			return nil, corrupt("tuple %d SA index %d overflows int32", i, sa)
		}
		out.sa[i] = int32(sa)
	}
	return out, nil
}

// check validates every column value with the checks Table.Append makes
// (Attribute.CheckValue, SensitiveAttr.CheckIndex), one column at a time,
// without building a tuple.
func (c *tupleCols) check(schema *microdata.Schema) error {
	for j, col := range c.qi {
		a := &schema.QI[j]
		for i, v := range col {
			if !a.Contains(v) {
				return corrupt("tuple %d: %v", i, a.CheckValue(v))
			}
		}
	}
	for i, v := range c.sa {
		if err := schema.SA.CheckIndex(int(v)); err != nil {
			return corrupt("tuple %d: %v", i, err)
		}
	}
	return nil
}

func decodeSchema(s snapSchema) (*microdata.Schema, error) {
	schema := &microdata.Schema{
		QI: make([]microdata.Attribute, len(s.QI)),
		SA: microdata.SensitiveAttr{Name: s.SAName, Values: s.SAValues},
	}
	for i, a := range s.QI {
		switch a.Kind {
		case "numeric":
			schema.QI[i] = microdata.NumericAttr(a.Name, a.Min, a.Max)
		case "categorical":
			h, err := hierarchy.Parse(a.Hierarchy)
			if err != nil {
				return nil, corrupt("attribute %q hierarchy: %v", a.Name, err)
			}
			schema.QI[i] = microdata.CategoricalAttr(a.Name, h)
		default:
			return nil, corrupt("attribute %q has unknown kind %q", a.Name, a.Kind)
		}
	}
	if err := schema.Validate(); err != nil {
		return nil, corrupt("schema: %v", err)
	}
	return schema, nil
}

// decodeECs turns a version 1/2 JSON EC list into the serving store, in
// canonical order, and checks it as a version 3 decode does.
func decodeECs(in []snapEC, schema *microdata.Schema) (*microdata.ECColumns, error) {
	ecs := make([]microdata.PublishedEC, len(in))
	for i, e := range in {
		ecs[i] = microdata.PublishedEC{Box: microdata.Box{Lo: e.Lo, Hi: e.Hi}, SACounts: e.SACounts, Size: e.Size}
	}
	cols, err := ecColumns(schema, ecs)
	if err != nil {
		return nil, corrupt("%v", err)
	}
	return cols, checkECs(cols)
}

// decodeTable rebuilds a table through Table.Append, which re-validates
// every tuple against the schema: a corrupt body fails here instead of
// panicking an estimator later.
func decodeTable(in *tupleCols, schema *microdata.Schema) (*microdata.Table, error) {
	if in == nil {
		return nil, corrupt("payload is missing its tuples")
	}
	rows, d := len(in.sa), len(in.qi)
	arena := make([]float64, rows*d)
	t := microdata.NewTable(schema)
	t.Tuples = make([]microdata.Tuple, 0, rows)
	for i := range in.sa {
		qi := arena[i*d : (i+1)*d : (i+1)*d]
		for j, col := range in.qi {
			qi[j] = col[i]
		}
		if err := t.Append(microdata.Tuple{QI: qi, SA: int(in.sa[i])}); err != nil {
			return nil, corrupt("tuple %d: %v", i, err)
		}
	}
	return t, nil
}

// decodeAnatomy rebuilds an Anatomy release's publication into snap.
func decodeAnatomy(p *snapPayload, tuples *tupleCols, schema *microdata.Schema, snap *Snapshot) error {
	t, err := decodeTable(tuples, schema)
	if err != nil {
		return err
	}
	m := len(schema.SA.Values)
	if p.Groups == nil {
		// Baseline: the table plus the overall SA distribution.
		if len(p.P) != m {
			return corrupt("baseline P has %d entries, domain %d", len(p.P), m)
		}
		for i, v := range p.P {
			if !isFinite(v) || v < 0 {
				return corrupt("baseline P[%d] = %v", i, v)
			}
		}
		snap.Baseline = &anatomy.Publication{Table: t, P: p.P}
		return nil
	}
	if p.L < 2 {
		return corrupt("ℓ-diverse payload with ℓ=%d", p.L)
	}
	if len(p.Groups) == 0 || len(p.Groups) != len(p.GroupSACounts) {
		return corrupt("%d groups but %d SA multisets", len(p.Groups), len(p.GroupSACounts))
	}
	pub := &anatomy.LDiversePublication{Table: t, L: p.L, SACounts: p.GroupSACounts}
	pub.Groups = make([]microdata.EC, len(p.Groups))
	for gi, rows := range p.Groups {
		pub.Groups[gi] = microdata.EC{Rows: rows}
	}
	// The groups must partition the table: a grouping that silently omits
	// rows would undercount every query instead of failing.
	if err := (&microdata.Partition{Table: t, ECs: pub.Groups}).Validate(); err != nil {
		return corrupt("ℓ-diverse groups: %v", err)
	}
	for gi, counts := range p.GroupSACounts {
		if len(counts) != m {
			return corrupt("group %d has %d SA counts, domain %d", gi, len(counts), m)
		}
		sum := 0
		for v, c := range counts {
			if c < 0 {
				return corrupt("group %d SA count %d is negative", gi, v)
			}
			sum += c
		}
		// The published multiset must describe exactly the group's rows;
		// a mismatch would silently skew every estimate the group touches.
		if sum != len(p.Groups[gi]) {
			return corrupt("group %d SA counts sum to %d for %d rows", gi, sum, len(p.Groups[gi]))
		}
	}
	snap.LDiverse = pub
	return nil
}

// decodePerturbed rebuilds a perturbed release's scheme and its tuple
// blocks into snap. The columns keep their stored order — only the build
// orders rows — and the block summaries are derived from them.
func decodePerturbed(p *snapPayload, tuples *tupleCols, schema *microdata.Schema, snap *Snapshot) error {
	if tuples == nil {
		return corrupt("payload is missing its tuples")
	}
	if err := tuples.check(schema); err != nil {
		return err
	}
	if p.Model == nil {
		return corrupt("perturbed payload without model")
	}
	m := len(schema.SA.Values)
	if len(p.Model.P) != m {
		return corrupt("model P has %d entries, domain %d", len(p.Model.P), m)
	}
	for i, v := range p.Model.P {
		if !isFinite(v) || v < 0 || v > 1 {
			return corrupt("model P[%d] = %v", i, v)
		}
	}
	if !(p.Model.Beta > 0) || !isFinite(p.Model.Beta) {
		return corrupt("model β = %v", p.Model.Beta)
	}
	var variant likeness.Variant
	switch p.Model.Variant {
	case "enhanced":
		variant = likeness.Enhanced
	case "basic":
		variant = likeness.Basic
	default:
		return corrupt("unknown model variant %q", p.Model.Variant)
	}
	model := &likeness.Model{
		Beta:          p.Model.Beta,
		Variant:       variant,
		BoundNegative: p.Model.BoundNegative,
		P:             p.Model.P,
	}
	scheme, err := perturb.NewSchemeFromModel(model, m)
	if err != nil {
		return corrupt("rebuilding perturbation scheme: %v", err)
	}
	snap.Scheme, snap.Tuples = scheme, newTupleBlocks(m, tuples.qi, tuples.sa)
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
