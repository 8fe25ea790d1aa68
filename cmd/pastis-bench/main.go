// Command pastis-bench regenerates the paper's evaluation: every table and
// figure of Section VI, at laptop scale, printed as aligned text tables and
// optionally written as CSV files.
//
// Usage:
//
//	pastis-bench                          # run everything at small scale
//	pastis-bench -experiment fig14strong  # one experiment
//	pastis-bench -scale full -csv out/    # full suite with CSV output
//
// Experiment ids: fig12 fig13 table1 fig14strong fig14weak fig15 fig16
// fig17 table2 claims ablations threads blocked kernels.
//
// The tables are virtual-clock reproduction, not measurement: wall-clock
// performance is measured by the repository benchmark (benchmark/README.md).
// -cpuprofile and -memprofile write pprof profiles of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/profile"
)

func main() {
	var (
		expID   = flag.String("experiment", "all", "experiment id or 'all'")
		scaleFl = flag.String("scale", "small", "dataset scale: tiny, small or full")
		csvDir  = flag.String("csv", "", "directory for CSV output (optional)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	stop, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	var sc experiments.Scale
	switch *scaleFl {
	case "tiny":
		sc = experiments.Tiny()
	case "small":
		sc = experiments.Small()
	case "full":
		sc = experiments.Full()
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scaleFl))
	}

	var list []experiments.Experiment
	if *expID == "all" {
		list = experiments.All()
	} else {
		exp, err := experiments.Get(*expID)
		if err != nil {
			fatal(err)
		}
		list = []experiments.Experiment{exp}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	for _, exp := range list {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "pastis-bench: running %s (%s) at %s scale...\n",
			exp.ID, exp.Desc, sc.Name)
		table, err := exp.Fn(sc)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", exp.ID, err))
		}
		fmt.Fprintf(os.Stderr, "pastis-bench: %s done in %.1fs\n",
			exp.ID, time.Since(start).Seconds())
		table.Fprint(os.Stdout)
		if *csvDir != "" {
			path := filepath.Join(*csvDir, exp.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
}

// stopProfiles flushes the -cpuprofile/-memprofile output; idempotent. It
// runs deferred when main returns and from fatal, whose os.Exit would skip
// the deferred call and lose the profile of exactly the run that failed.
var stopProfiles = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pastis-bench:", err)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "pastis-bench:", err)
	}
	os.Exit(1)
}
