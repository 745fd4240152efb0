package release

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// -update rewrites the golden snapshot fixtures. Changing them is the
// conscious act that accompanies a format version bump — CI runs without
// the flag, so an accidental wire-format change fails loudly.
var updateGolden = flag.Bool("update", false, "rewrite golden snapshot fixtures under testdata/")

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".snap")
}

// TestSnapshotGolden pins the snapshot wire format byte-for-byte for all
// three methods (four payload shapes): encoding today's fixtures must
// reproduce the committed files exactly, and the committed files must
// decode into snapshots that answer queries identically to the in-memory
// originals. Breaking either is a format break; regenerate with
//
//	go test ./internal/release -run TestSnapshotGolden -update
//
// and bump SnapshotFormatVersion if decode compatibility changed. A change
// of row order with the layout unchanged (the canonical tuple order of
// perturbed releases was one) is a regeneration, not a version bump:
// files in the old order still decode and answer. Freeze the old bytes
// under testdata/v<version>/ first, so that stays tested.
func TestSnapshotGolden(t *testing.T) {
	fixtures := codecFixtures(t)
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		fx := fixtures[name]
		t.Run(name, func(t *testing.T) {
			data, err := EncodeSnapshot(fx.snap, fx.spec)
			if err != nil {
				t.Fatal(err)
			}
			path := goldenPath(name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(data))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("encode of %s is not byte-stable: got %d bytes, golden %d bytes.\n"+
					"The snapshot wire format changed. If intentional, bump SnapshotFormatVersion "+
					"and regenerate with -update.", name, len(data), len(want))
			}

			// Decode-compat: the committed bytes must keep producing the
			// same answers as the in-memory original.
			snap, spec, err := DecodeSnapshot(want)
			if err != nil {
				t.Fatalf("golden file no longer decodes: %v", err)
			}
			if snap.Kind != fx.snap.Kind || spec.Method != fx.spec.Method {
				t.Fatalf("golden decoded to kind %q / method %q, want %q / %q",
					snap.Kind, spec.Method, fx.snap.Kind, fx.spec.Method)
			}
			for qi, q := range codecQueries() {
				want, err := fx.snap.Estimate(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := snap.Estimate(q)
				if err != nil {
					t.Fatalf("query %d against golden: %v", qi, err)
				}
				if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
					t.Fatalf("query %d: golden answers %v, original %v", qi, got, want)
				}
			}
		})
	}
}
