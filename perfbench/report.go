package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metric is one reported number. name is the BENCHMARK.json name; label,
// when set, is what the number is on this workload (the read workloads'
// query_qps and the publish workload's publish_rows_per_s both report as
// throughput_per_s).
type metric struct {
	Name   string  `json:"name"`
	Label  string  `json:"label,omitempty"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Base   int     `json:"base"`
	BaseOf string  `json:"base_of"`
	Source string  `json:"source"`
	// Ungated metrics are printed and kept in the full report but left
	// out of the summary line, so no bound applies to them.
	Ungated bool `json:"ungated,omitempty"`
}

// meta is the provenance every result carries.
type meta struct {
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	CPU          string `json:"cpu"`
	Seed         int64  `json:"seed"`
}

// report is one run's outcome.
type report struct {
	Meta      meta     `json:"meta"`
	Workload  string   `json:"workload"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Metrics   []metric `json:"metrics"`
}

func (r *report) add(m metric) { r.Metrics = append(r.Metrics, m) }

// fail records a wrong answer or a broken invariant: the run is then not
// correct. Only the first few messages are kept.
func (r *report) fail(format string, args ...any) {
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// write prints the human-readable table, the full report as one JSON
// line, and last the summary line: correct, attempted, failed and every
// metric's value and unit.
func (r *report) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	m := r.Meta
	fmt.Fprintf(bw, "# perfbench %s seed=%d seconds=%d trace=%v commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		r.Workload, m.Seed, r.Seconds, r.Trace, m.Commit, m.GoVersion, m.GOMAXPROCS, m.NProc, m.CPU)
	for _, x := range r.Metrics {
		name := x.Name
		if x.Label != "" && x.Label != x.Name {
			name += " (" + x.Label + ")"
		}
		fmt.Fprintf(bw, "%-52s %14.4f %-8s base=%d %s  [%s]\n", name, x.Value, x.Unit, x.Base, x.BaseOf, x.Source)
	}
	fmt.Fprintf(bw, "# attempted=%d failed=%d problems=%d\n", r.Attempted, r.Failed, len(r.Problems))
	for _, p := range r.Problems {
		fmt.Fprintf(bw, "# problem: %s\n", p)
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", full)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.Problems) == 0 && r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, x := range r.Metrics {
		if !x.Ungated {
			summary.Metrics[x.Name] = value{x.Value, x.Unit}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

// collectMeta records what produced a result: the commit (when built in a
// git checkout), a digest of the module's sources (always), the Go
// version, GOMAXPROCS, the CPU count and model, and the seed.
func collectMeta(commit, root string, seed int64) meta {
	return meta{
		Commit:       commit,
		SourceSHA256: sourceDigest(root),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPU:          cpuModel(),
		Seed:         seed,
	}
}

// sourceDigest hashes every .go file and go.mod under root, in path
// order, skipping build output: it names the code a checkout holds even
// where there is no git history.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	slices.Sort(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel reads the processor model from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
