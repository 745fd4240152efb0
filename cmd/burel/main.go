// Command burel anonymizes a CENSUS-schema CSV with the BUREL algorithm and
// writes the generalized release.
//
// Usage:
//
//	burel -beta B [-qi D] [-seed S] [-basic] [-i FILE] [-o FILE] [-stats]
//
// The input must follow cmd/datagen's format (the Table 3 CENSUS schema).
// -qi keeps the first D QI attributes (default 3, as in §6). -stats prints
// an evaluation summary to stderr instead of suppressing it.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/likeness"
	"repro/internal/metrics"
	"repro/internal/microdata"
)

func main() {
	beta := flag.Float64("beta", 4, "β-likeness threshold")
	qi := flag.Int("qi", 3, "number of QI attributes to keep (1-5)")
	seed := flag.Int64("seed", 1, "algorithm seed")
	basic := flag.Bool("basic", false, "use basic instead of enhanced β-likeness")
	in := flag.String("i", "", "input CSV (default stdin)")
	out := flag.String("o", "", "output CSV (default stdout)")
	stats := flag.Bool("stats", true, "print evaluation summary to stderr")
	flag.Parse()
	if n := len(census.Schema().QI); *qi < 1 || *qi > n {
		die(fmt.Errorf("-qi must be in [1, %d], got %d", n, *qi))
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			die(err)
		}
		defer f.Close()
		r = f
	}
	table, err := microdata.ReadCSV(bufio.NewReader(r), census.Schema())
	if err != nil {
		die(err)
	}
	table = table.Project(*qi)

	popts := []anon.BURELOption{anon.BURELBeta(*beta), anon.BURELSeed(*seed)}
	if *basic {
		popts = append(popts, anon.BURELBasic())
	}
	// Ctrl-C aborts the anonymization mid-run instead of being ignored
	// until the next write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	rel, err := anon.Anonymize(ctx, table, anon.NewBURELParams(popts...))
	if err != nil {
		die(err)
	}
	elapsed := time.Since(start)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if err := microdata.WriteGeneralizedCSV(bw, rel.Partition); err != nil {
		die(err)
	}
	if err := bw.Flush(); err != nil {
		die(err)
	}
	if *stats {
		ev := metrics.Evaluate("BUREL", rel.Partition, likeness.EqualEMD, elapsed)
		fmt.Fprintln(os.Stderr, ev.String())
	}
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "burel: %v\n", err)
	os.Exit(1)
}
