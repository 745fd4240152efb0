// Command perfbench is the repository's benchmark: one command that hosts
// a 3-node cluster and its gateway in this process, drives one seeded
// workload through pkg/client, checks the answers bit for bit, and
// prints the end-to-end metrics — or, with --trace 1, the per-layer
// metrics of a separately traced window — ending with one JSON line.
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md): explore, perturbed and dashboard query one
// shared catalog (a 500k-row BUREL release and a 50k-row perturbation
// release); publish uploads and replicates new releases and re-opens the
// nodes' data directories.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// scale sizes a run. paperScale is the benchmark; toyScale lets the
// self-test drive every workload in seconds.
type scale struct {
	burelRows, perturbRows int // the read catalog's tables (§6: 500k CENSUS rows)
	publishRows            int // rows per published table (20k, QI = 3)
	publishTables          int // distinct seeded tables the publishers cycle through
	roundPublishes         int // publishes per round: ≥ 100 keeps 10 beyond the p90
	publishesPerSecond     int // rounds per run = seconds × publishesPerSecond ÷ roundPublishes
	roundReopens           int // data-directory re-opens after each publish round
	setups                 int // read set-ups per run; setup_s is their median
	reopens                int // data-directory re-opens after each read set-up; recover_s is their median
	warmBatches            int // batches sent through the gateway in each set-up's warm-up
	// estimatorBatches is, per method, how many 64-query batches of the
	// seeded stream the traced run costs the estimator on in process:
	// fewer for the tuple scan, whose units cost ~50× an indexed one.
	estimatorBatches map[string]int
	poolSize         int // the dashboard's query pool
}

var paperScale = scale{
	burelRows: 500000, perturbRows: 50000,
	publishRows: 20000, publishTables: 8, roundPublishes: 120, publishesPerSecond: 24, roundReopens: 2,
	setups: 3, reopens: 7, warmBatches: 16, poolSize: 256,
	estimatorBatches: map[string]int{"burel": 32, "perturb": 4},
}

var toyScale = scale{
	burelRows: 4000, perturbRows: 2000,
	publishRows: 500, publishTables: 3, roundPublishes: 110, publishesPerSecond: 55, roundReopens: 1,
	setups: 2, reopens: 2, warmBatches: 2, poolSize: 64,
	estimatorBatches: map[string]int{"burel": 2, "perturb": 1},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	dataRoot string // where the nodes' data directories are created
	srcRoot  string // the module root, for the source digest
	scale    scale
	// nudge moves one reference answer by one ulp, so the answer check
	// must fail: the self-test's proof that the check bites.
	nudge bool
}

// clients is the closed loop's size: one analyst, dashboard or publisher
// per core of the 2-core machine the benchmark was sized on.
const clients = 2

// window is the timed window's length. A traced run measures two
// windows, untraced then traced, so each lasts half the run.
func (c config) window() time.Duration {
	if c.trace {
		return time.Duration(c.seconds) * time.Second / 2
	}
	return time.Duration(c.seconds) * time.Second
}

// timeout bounds one run, so a stuck cluster ends in an error instead
// of a hang: a fixed allowance for table generation, set-ups, re-opens
// and checks, plus twice the measured time.
func (c config) timeout() time.Duration {
	return 120*time.Second + 2*time.Duration(c.seconds)*time.Second
}

func run(cfg config) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout())
	defer cancel()
	rep := &report{Meta: collectMeta(cfg.commit, cfg.srcRoot, cfg.seed), Workload: cfg.workload, Seconds: cfg.seconds, Trace: cfg.trace}
	if err := os.MkdirAll(cfg.dataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dataRoot, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if cfg.workload == "publish" {
		err = runPublish(ctx, cfg, dir, rep)
	} else if ws, ok := readWorkloads[cfg.workload]; ok {
		err = runRead(ctx, cfg, ws, dir, rep)
	} else {
		err = fmt.Errorf("unknown workload %q (explore, perturbed, dashboard, publish)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func main() {
	cfg := config{scale: paperScale, srcRoot: "."}
	flag.StringVar(&cfg.workload, "workload", "", "explore, perturbed, dashboard or publish")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated table and query")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of a traced window instead")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit the binary was built from")
	flag.StringVar(&cfg.dataRoot, "data", ".bench_build", "directory for the nodes' data directories")
	flag.Parse()
	cfg.trace = *trace == 1
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// liveHeapMiB is the live heap after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
