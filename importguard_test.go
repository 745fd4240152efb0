package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// forbiddenForExamples are the internal packages examples must reach
// through the public surface instead of importing directly: the
// publication schemes behind the anon registry and the serving-layer
// internals. Data-model and evaluation packages (microdata, hierarchy,
// census, query, metrics, likeness, dist, mondrian as a comparator)
// remain importable — they are inputs and measurement, not the API.
var forbiddenForExamples = []string{
	"repro/internal/burel",
	"repro/internal/anatomy",
	"repro/internal/perturb",
	"repro/internal/sabre",
	"repro/internal/release",
	"repro/internal/engine",
	"repro/internal/server",
	"repro/internal/eval",
}

// forbiddenForCmds are the anonymization scheme internals every CLI must
// reach through the anon registry: a command wiring a scheme package
// directly bypasses the registry's param validation and seeding
// discipline (the boundary cmd/experiments used to violate before
// cmd/evalgen replaced it).
var forbiddenForCmds = []string{
	"repro/internal/burel",
	"repro/internal/anatomy",
	"repro/internal/perturb",
	"repro/internal/sabre",
}

// TestExamplesAndPkgImportGuard is the CI guard of the public API
// boundary: examples/ must not import the algorithm or serving internals
// (they exist to demonstrate the supported surface), pkg/ — the
// externally importable tree — must not import repro/internal at all, or
// it would not compile outside this module, and cmd/ must resolve
// anonymization schemes through the anon registry.
func TestExamplesAndPkgImportGuard(t *testing.T) {
	checkTree(t, "examples", func(path string) (bad bool, why string) {
		for _, f := range forbiddenForExamples {
			if path == f {
				return true, "use the public anon / pkg/client API instead"
			}
		}
		return false, ""
	})
	checkTree(t, "pkg", func(path string) (bad bool, why string) {
		if strings.HasPrefix(path, "repro/internal/") || path == "repro/internal" {
			return true, "pkg/ is the external surface; it cannot depend on internal packages"
		}
		return false, ""
	})
	checkTree(t, "cmd", func(path string) (bad bool, why string) {
		for _, f := range forbiddenForCmds {
			if path == f {
				return true, "CLIs resolve schemes through the anon registry, not scheme internals"
			}
		}
		return false, ""
	})
}

// checkTree parses every .go file under root and applies the rule to
// each import path.
func checkTree(t *testing.T, root string, rule func(path string) (bool, string)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range file.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if bad, why := rule(ip); bad {
				t.Errorf("%s imports %s: %s", path, ip, why)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
}
