// Package hilbert implements a d-dimensional Hilbert space-filling curve
// and the one way rows are put in curve order over the QI domain.
//
// BUREL (§4.5 of the β-likeness paper) sorts the tuples of each bucket by
// their Hilbert index so that neighbours on the 1-D curve are likely
// neighbours in QI space, and forms equivalence classes from curve-adjacent
// tuples to keep bounding boxes small. SABRE draws its ECs from the same
// bucket order, and the serving layer lays out a generalized release's
// ECs (for the bitset index) and a perturbed release's tuples (for their
// zone-mapped blocks) along the curve. All four build a Mapper with
// NewMapper over microdata.Schema.Bounds, key each row with IndexInto and
// sort with Order; they differ only in resolution. BUREL and SABRE take
// the run's hilbert_bits (default 10), the tuple blocks 4 bits, and the
// EC layout min(10, (64−idxBits)/d) with idxBits = bits.Len(|ECs|−1): the
// bits a key packed beside the EC's index once had left, kept so that a
// served EC order never moves.
//
// The implementation follows Skilling, "Programming the Hilbert curve"
// (AIP Conf. Proc. 707, 2004): coordinates are converted to and from the
// "transposed" index form with O(d·b) bit operations.
package hilbert

import (
	"fmt"
	"math/bits"
)

// Curve maps between d-dimensional grid points with b bits per dimension
// and positions on the Hilbert curve. d·b must not exceed 63 so that the
// index fits in a uint64.
type Curve struct {
	dims int
	bits int
}

// New constructs a curve over dims dimensions with bits bits per dimension.
func New(dims, bits int) (*Curve, error) {
	if dims < 1 {
		return nil, fmt.Errorf("hilbert: dims must be ≥1, got %d", dims)
	}
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("hilbert: bits must be in [1,32], got %d", bits)
	}
	if dims*bits > 63 {
		return nil, fmt.Errorf("hilbert: dims*bits = %d exceeds 63", dims*bits)
	}
	return &Curve{dims: dims, bits: bits}, nil
}

// Dims returns the dimensionality of the curve.
func (c *Curve) Dims() int { return c.dims }

// Bits returns the per-dimension resolution in bits.
func (c *Curve) Bits() int { return c.bits }

// Max returns the exclusive upper bound of each coordinate (2^bits).
func (c *Curve) Max() uint32 { return 1 << uint(c.bits) }

// Encode returns the Hilbert index of the grid point. Coordinates must be
// below Max; len(coords) must equal Dims. The input slice is not modified.
func (c *Curve) Encode(coords []uint32) uint64 {
	if len(coords) != c.dims {
		panic(fmt.Sprintf("hilbert: Encode got %d coords, want %d", len(coords), c.dims))
	}
	x := make([]uint32, c.dims)
	copy(x, coords)
	c.axesToTranspose(x)
	return c.interleave(x)
}

// Decode returns the grid point at the given Hilbert index.
func (c *Curve) Decode(h uint64) []uint32 {
	x := c.deinterleave(h)
	c.transposeToAxes(x)
	return x
}

// axesToTranspose converts coordinates to the transposed Hilbert form
// in place (Skilling's AxestoTranspose).
func (c *Curve) axesToTranspose(x []uint32) {
	n := c.dims
	m := uint32(1) << uint(c.bits-1)
	// Inverse undo excess work.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else { // exchange
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func (c *Curve) transposeToAxes(x []uint32) {
	n := c.dims
	m := uint32(2) << uint(c.bits-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleave packs the transposed form into a single index: bit (bits-1-k)
// of each dimension in turn forms the next most significant index bits.
func (c *Curve) interleave(x []uint32) uint64 {
	var h uint64
	for k := c.bits - 1; k >= 0; k-- {
		for i := 0; i < c.dims; i++ {
			h = (h << 1) | uint64((x[i]>>uint(k))&1)
		}
	}
	return h
}

// deinterleave unpacks an index into the transposed form.
func (c *Curve) deinterleave(h uint64) []uint32 {
	x := make([]uint32, c.dims)
	total := c.dims * c.bits
	for pos := 0; pos < total; pos++ {
		bit := (h >> uint(total-1-pos)) & 1
		dim := pos % c.dims
		k := c.bits - 1 - pos/c.dims
		x[dim] |= uint32(bit) << uint(k)
	}
	return x
}

// Mapper converts real-valued points in a known box to grid coordinates and
// Hilbert indices. Each dimension i is scaled from [lo[i], hi[i]] onto the
// curve's grid; degenerate dimensions (lo == hi) map to 0.
type Mapper struct {
	Curve  *Curve
	Lo, Hi []float64
	scale  []float64
}

// DefaultBits is the per-dimension resolution NewMapper gives a maxBits
// of 0 or less.
const DefaultBits = 10

// NewMapper builds a Mapper over the box [lo, hi] with
// min(maxBits, 32, keyBits/d) bits per dimension, keyBits capped at 63,
// so that every key fits in keyBits bits; maxBits ≤ 0 selects
// DefaultBits. It fails, and never panics, when the box is empty or has
// more dimensions than key bits.
func NewMapper(lo, hi []float64, maxBits, keyBits int) (*Mapper, error) {
	d := len(lo)
	if len(hi) != d {
		return nil, fmt.Errorf("hilbert: box has %d low and %d high bounds", d, len(hi))
	}
	if d < 1 {
		return nil, fmt.Errorf("hilbert: empty box")
	}
	if maxBits <= 0 {
		maxBits = DefaultBits
	}
	c, err := New(d, min(maxBits, 32, min(keyBits, 63)/d))
	if err != nil {
		return nil, err
	}
	m := &Mapper{Curve: c, Lo: lo, Hi: hi, scale: make([]float64, d)}
	maxCoord := float64(c.Max() - 1)
	for i := range lo {
		if hi[i] > lo[i] {
			m.scale[i] = maxCoord / (hi[i] - lo[i])
		}
	}
	return m, nil
}

// IndexInto returns the Hilbert index of the real-valued point, clamping
// each coordinate into the mapper's box. buf must have length
// Curve.Dims(); its contents are clobbered, so a loop over many points
// reuses one buffer and allocates nothing.
func (m *Mapper) IndexInto(point []float64, buf []uint32) uint64 {
	if len(buf) != m.Curve.dims {
		panic(fmt.Sprintf("hilbert: IndexInto buffer of %d, want %d", len(buf), m.Curve.dims))
	}
	for i, v := range point {
		if v < m.Lo[i] {
			v = m.Lo[i]
		}
		if v > m.Hi[i] {
			v = m.Hi[i]
		}
		buf[i] = uint32((v - m.Lo[i]) * m.scale[i])
	}
	m.Curve.axesToTranspose(buf)
	return m.Curve.interleave(buf)
}

// Order returns the positions of keys in ascending key order, equal keys
// in position order: the one sort that puts rows in curve order. It is a
// stable LSD radix sort, one counting pass per byte up to the widest
// key's top bit, so a d·b-bit key costs ⌈d·b/8⌉ linear passes instead of
// a comparison sort of (key, position) pairs.
func Order(keys []uint64) []int32 {
	ord := make([]int32, len(keys))
	for i := range ord {
		ord[i] = int32(i)
	}
	var all uint64
	for _, k := range keys {
		all |= k
	}
	tmp := make([]int32, len(keys))
	for shift := 0; shift < bits.Len64(all); shift += 8 {
		var start [257]int
		for _, i := range ord {
			start[keys[i]>>shift&0xff+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for _, i := range ord {
			b := keys[i] >> shift & 0xff
			tmp[start[b]] = i
			start[b]++
		}
		ord, tmp = tmp, ord
	}
	return ord
}
