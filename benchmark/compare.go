package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// spec is BENCHMARK.json: the contract the metric and workload names, units,
// directions and bounds come from.
type spec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareCmd implements "benchmark compare a.json b.json": for every
// workload and end-to-end metric, how much worse b is than a against the
// metric's bound. Exit status 1 when a bound is exceeded, an op failed, or a
// metric is missing.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark contract with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] a.json b.json")
		return 2
	}
	var sp spec
	var a, b resultFile
	for _, in := range []struct {
		path string
		into any
	}{{*specPath, &sp}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := readJSON(in.path, in.into); err != nil {
			fmt.Fprintln(stderr, "benchmark compare:", err)
			return 2
		}
	}
	breaches := compareResults(sp, a, b, stdout)
	if breaches > 0 {
		fmt.Fprintf(stdout, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(stdout, "within bounds")
	return 0
}

func compareResults(sp spec, a, b resultFile, out io.Writer) (breaches int) {
	find := func(f resultFile, workload string) *result {
		for i := range f.Results {
			if f.Results[i].Workload == workload {
				return &f.Results[i].Result
			}
		}
		return nil
	}
	fmt.Fprintf(out, "%-18s %-15s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range sp.Workloads {
		ra, rb := find(a, w.Name), find(b, w.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(out, "%-18s missing from a result file\n", w.Name)
			breaches++
			continue
		}
		for _, r := range []*result{ra, rb} {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(out, "%-18s %d of %d ops failed\n", w.Name, r.Failed, r.Attempted)
				breaches++
			}
		}
		for _, m := range sp.EndToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				fmt.Fprintf(out, "%-18s %-15s missing\n", w.Name, m.Name)
				breaches++
				continue
			}
			worse := worsening(m.Better, va.Value, vb.Value)
			mark := ""
			if worse > m.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-18s %-15s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				w.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, mark)
		}
	}
	return breaches
}
