package durable

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestWriteReadSweep: WriteFile installs whole files and leaves no temp
// sibling, ReadFile refuses names that are not bare file names, and Sweep
// removes only unkept files with the swept extension or its temp form.
func TestWriteReadSweep(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.snap", "b.snap", "d.eval"} {
		if err := WriteFile(dir, name, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteFile(dir, "a.snap", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if data, err := ReadFile(dir, "a.snap"); err != nil || string(data) != "second" {
		t.Fatalf("ReadFile: %q, %v", data, err)
	}
	for _, bad := range []string{"", "../a.snap", "sub/a.snap"} {
		if _, err := ReadFile(dir, bad); err == nil {
			t.Errorf("ReadFile accepted %q", bad)
		}
	}

	if err := os.WriteFile(filepath.Join(dir, "c.snap.tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "e.snap"), 0o755); err != nil {
		t.Fatal(err)
	}
	Sweep(dir, ".snap", map[string]bool{"a.snap": true})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	sort.Strings(left)
	if got := strings.Join(left, " "); got != "a.snap d.eval e.snap" {
		t.Fatalf("after sweep: %s", got)
	}
}
