package durable

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
)

// tmpSuffix marks the temporary sibling WriteFile installs from.
const tmpSuffix = ".tmp"

// WriteFile atomically installs data as dir/name: it writes a temporary
// sibling, fsyncs it, renames it into place and fsyncs the directory. A
// crash leaves either the previous state or the complete new file, never
// a torn file under the final name.
func WriteFile(dir, name string, data []byte) error {
	final := filepath.Join(dir, name)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads the file a log record names inside dir. The name must
// be a bare file name: a record naming nothing, or a path, is refused
// rather than followed out of the directory.
func ReadFile(dir, name string) ([]byte, error) {
	if name == "" || name != filepath.Base(name) {
		return nil, fmt.Errorf("log names invalid file %q", name)
	}
	return os.ReadFile(filepath.Join(dir, name))
}

// Sweep removes the files in dir named <x>ext or <x>ext.tmp that keep
// does not name: debris of a crash between a file's install and the log
// record naming it, or mid-write, which recovery can never serve and
// which would otherwise leak forever. The caller's keep set holds every
// file a log record still names, corrupt ones included: those stay for
// forensics.
func Sweep(dir, ext string, keep map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || keep[name] || !(strings.HasSuffix(name, ext) || strings.HasSuffix(name, ext+tmpSuffix)) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err == nil {
			slog.Info("removed orphan file", "component", "durable", "dir", dir, "file", name)
		}
	}
}
