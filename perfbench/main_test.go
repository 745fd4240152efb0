package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "us/row": true}

func toyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 2, trace: trace, commit: "test",
		dataRoot: t.TempDir(), srcRoot: "..", scale: toyScale}
}

// summaryLine runs the report writer and decodes its last line, which
// must hold exactly correct, attempted, failed and metrics.
func summaryLine(t *testing.T, rep *report) map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	var keys []string
	for k := range out {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Fatalf("summary keys %v, want %v", keys, want)
	}
	return out
}

// workloads is every workload the command runs: BENCHMARK.json lists
// the ones steady enough to gate, and the self-test covers them all.
func workloads() []string {
	return append(slices.Sorted(maps.Keys(readWorkloads)), "publish")
}

// TestWorkloadsAtToyScale runs every workload untraced and traced at toy
// scale: each run must be correct, with zero failed operations, and emit
// exactly the metrics BENCHMARK.json declares, with their units. Every
// timing must have measured some work: a time that reads 0 on every run
// of a workload would say nothing about its layer.
func TestWorkloadsAtToyScale(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		if !slices.Contains(workloads(), w.Name) {
			t.Errorf("BENCHMARK.json lists %q, which the command does not run", w.Name)
		}
	}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			name := w
			want := b.EndToEnd
			if trace {
				name += "/traced"
				want = b.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(toyConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Attempted < 1 || rep.Failed != 0 || len(rep.Problems) != 0 {
					t.Fatalf("attempted %d, failed %d, problems %v", rep.Attempted, rep.Failed, rep.Problems)
				}
				var got []declared
				for _, m := range rep.Metrics {
					if !m.Ungated {
						got = append(got, declared{m.Name, m.Unit})
					}
					if timeUnits[m.Unit] && m.Value <= 0 {
						t.Errorf("%s = %v %s over a base of %d %s", m.Name, m.Value, m.Unit, m.Base, m.BaseOf)
					}
				}
				if !slices.Equal(got, want) {
					t.Errorf("emitted metrics\n%v\nwant\n%v", got, want)
				}
				var metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				}
				line := summaryLine(t, rep)
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				for _, d := range want {
					m, ok := metrics[d.Name]
					if !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("summary line lacks %s in %s", d.Name, d.Unit)
					}
				}
				if string(line["correct"]) != "true" {
					t.Errorf("summary line says correct=%s", line["correct"])
				}
			})
		}
	}
}

// TestAnswerCheckCatchesOneWrongReference moves one reference answer by
// one ulp on every workload: the run must count a failed operation and
// report itself incorrect.
func TestAnswerCheckCatchesOneWrongReference(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w, func(t *testing.T) {
			cfg := toyConfig(t, w, false)
			cfg.nudge = true
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 1 || len(rep.Problems) == 0 {
				t.Fatalf("failed %d, problems %v; want exactly the nudged answer to fail", rep.Failed, rep.Problems)
			}
			if string(summaryLine(t, rep)["correct"]) != "false" {
				t.Error("summary line says correct with a wrong reference answer")
			}
		})
	}
}

func TestExactQuantileNeedsTenBeyond(t *testing.T) {
	descending := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if q, err := exactQuantile(descending(999), 0.99); err == nil {
		t.Errorf("p99 of 999 samples has 9 beyond it and must error, got %+v", q)
	}
	q, err := exactQuantile(descending(1000), 0.99)
	if err != nil || q.value != 990 || q.beyond != 10 || q.n != 1000 {
		t.Errorf("p99 of 1…1000 = %+v, %v; want 990 with 10 beyond", q, err)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	base := spanAt(0, 100)
	children := []span{spanAt(10, 30), spanAt(20, 40), spanAt(90, 120), spanAt(-5, 5)}
	if got := covered(base.start, base.end, children); got != 45 {
		t.Errorf("covered = %d, want 45 (5 + 30 + 10)", got)
	}
}

func spanAt(a, b int) span {
	var t0 time.Time
	return span{start: t0.Add(time.Duration(a)), end: t0.Add(time.Duration(b))}
}
