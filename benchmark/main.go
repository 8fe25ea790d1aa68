// Command benchmark is the repository's one benchmark: four protein
// similarity graph workloads, each checked against a reference graph,
// reporting end-to-end metrics (untraced) or per-layer metrics (traced).
// README.md in this directory is the manual; BENCHMARK.json at the repository
// root is the contract it is written to.
//
//	go run ./benchmark --workload avsa_exact_xd --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -out a.json            # every workload, untraced
//	go run ./benchmark compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// A value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// header describes a run; it is printed before the metrics and stored with
// the trace and in the file -out writes.
type header struct {
	Machine  machine `json:"machine"`
	Workload string  `json:"workload,omitempty"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Scale    string  `json:"scale"`
	Trace    bool    `json:"trace"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	outDir   string // traces and temporary index directories
	out      string // result file of a run over every workload
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload, each in its own process")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 16, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.scale, "scale", "full", "full, or smoke (tiny inputs, two ops: exercises the harness, measures nothing)")
	fs.StringVar(&o.outDir, "outdir", "benchmark/out", "directory for traces and temporary files")
	fs.StringVar(&o.out, "out", "", "with no -workload: write every workload's result to this file, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if o.scale != "full" && o.scale != "smoke" {
		fmt.Fprintf(stderr, "benchmark: unknown scale %q (want full or smoke)\n", o.scale)
		return 2
	}
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// The driver allows a run 180 s; a run that hangs must not outlive that.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(stderr, "benchmark: run exceeded 170 s, giving up")
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// fileResult is one workload's entry in the file -out writes.
type fileResult struct {
	Workload string `json:"workload"`
	Result   result `json:"result"`
}

type resultFile struct {
	Header  header       `json:"header"`
	Results []fileResult `json:"results"`
}

// runAll runs every workload in a fresh child process of this binary, so
// that resident-set peaks, heap growth and the substitute k-mer cache of one
// workload cannot reach the next, and collects the result lines.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	file := resultFile{Header: header{Machine: currentMachine(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace}}
	status := 0
	for _, w := range workloads {
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-scale", o.scale, "-outdir", o.outDir)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		stdout.Write(out)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			status = 1
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s printed no result: %v\n", w.Name, err)
			status = 1
			continue
		}
		file.Results = append(file.Results, fileResult{w.Name, res})
	}
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return status
}

func lastLine(out []byte) []byte {
	end := len(out)
	for end > 0 && out[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && out[start-1] != '\n' {
		start--
	}
	return out[start:end]
}

// runWorkload is one run: set-up, the timed window, and either the
// end-to-end metrics or, traced, the layer probes and per-layer metrics.
func runWorkload(w *workload, o options, stdout io.Writer) (*result, error) {
	hdr := header{Machine: currentMachine(), Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace}
	hj, _ := json.Marshal(hdr)
	fmt.Fprintf(stdout, "# %s\n", hj)

	n, setups, minOps, probes := w.N, 3, w.MinOps, fullProbes
	if o.scale == "smoke" {
		n, setups, minOps, probes = w.Smoke, 1, 2, smokeProbes
		o.seconds = 0
	}
	if o.trace {
		// setup_s and wall_s are end-to-end metrics, which the traced run does
		// not report: one set-up, and half the window for the op loop, which
		// here only feeds the runtime.* and trace.* metrics. The layer probes
		// that follow are the rest of what this run measures.
		setups = 1
		o.seconds /= 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}

	// Set-up runs several times and reports its median: one set-up is a
	// handful of whole runs, too few to be steady on its own.
	var fx *fixture
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		var err error
		if fx, err = setUp(w, n, o.seed, o.outDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer fx.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	win := timedWindow(fx, o.seconds, minOps, tr)
	for _, msg := range win.errors {
		fmt.Fprintf(stdout, "# failed op: %s\n", msg)
	}

	res := &result{Attempted: win.attempted, Failed: win.failed, Metrics: map[string]value{}}
	var order []string
	put := func(name, unit string, v float64) {
		if _, dup := res.Metrics[name]; !dup {
			order = append(order, name)
		}
		res.Metrics[name] = value{v, unit}
	}
	if o.trace {
		if err := layerProbes(fx, win, tr, probes, o.outDir, put); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		path, err := tr.write(o.outDir, w.Name, hdr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(tr.spans), path)
	} else {
		wall := median(win.good)
		recall, precision := fx.quality()
		put("setup_s", "s", median(setupTimes))
		put("wall_s", "s", wall)
		put("seqs_per_s", "1/s", float64(fx.seqsPerOp())/wall)
		// The median over ops of each op's own peak: the peak of the whole
		// process is a maximum over a hundred garbage-collection cycles and
		// moves by 10% between identical runs.
		rss := median(win.peakRSS)
		if len(win.peakRSS) == 0 {
			rss = peakRSSMB()
		}
		put("peak_rss_mb", "MB", rss)
		put("pair_recall", "ratio", recall)
		put("pair_precision", "ratio", precision)
	}
	for _, name := range order {
		if v := res.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	res.Correct = win.failed == 0 && len(win.good) > 0
	fmt.Fprintf(stdout, "# %s: %d ops attempted, %d failed, %d timed samples, GOMAXPROCS %d\n",
		w.Name, win.attempted, win.failed, len(win.good), runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "# hypervisor stole %.2f CPU s during the loop; %d ops set aside for it\n", win.stolen, win.setAside)
	fmt.Fprintf(stdout, "# op seconds: %.4f\n", win.good)
	for _, name := range order {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// stolenLimit is the share of an op's CPU time (seconds × processors) the
// hypervisor may take before the op's time is set aside. The sandbox this
// was written on loses 5% of its CPU time to its host, nearly all of it in
// bursts that double every time measured for a minute on end; an op inside
// one measures the host, not the program.
const stolenLimit = 0.02

// window is the outcome of the timed loop.
type window struct {
	attempted, failed int
	good              []float64 // seconds of each op that passed its check and was not stolen from
	setAside          int       // ops that passed but lost more than stolenLimit to the hypervisor
	stolen            float64   // CPU seconds the hypervisor took during the loop
	peakRSS           []float64 // MB, the resident-set peak during each op, where the kernel lets it be reset
	before, after     usage     // process counters around the loop
	traced, untraced  []float64 // the same, split by whether a span wrapped the op
	errors            []string
}

// timedWindow runs ops back to back until seconds have passed and at least
// minOps ops ran. An op fails when it returns an error, fails its output
// check, or takes more than ten times the slowest warm-up op (2 s at least,
// so a scheduling hiccup on a millisecond op is not a failure). The time of
// an op the hypervisor stole from is set aside, unless that leaves fewer than
// minOps samples. With a tracer, every other op is wrapped in a span; the
// two halves give the tracing overhead.
func timedWindow(fx *fixture, seconds float64, minOps int, tr *tracer) window {
	var win window
	var stolenOps []float64 // seconds of the ops set aside
	deadline := max(10*fx.warmSeconds, 2)
	cpus := float64(runtime.NumCPU())
	runtime.GC()
	win.before = readUsage()
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		var err error
		var t *tracer
		if tr != nil && i%2 == 0 {
			t = tr
			t.op = i
		}
		perOpRSS := resetPeakRSS()
		stolen := stolenSeconds()
		secs := t.span("op", func() { err = fx.op() })
		stolen = stolenSeconds() - stolen
		win.stolen += stolen
		if perOpRSS {
			win.peakRSS = append(win.peakRSS, peakRSSMB())
		}
		if tr != nil {
			tr.op = -1
		}
		win.attempted++
		switch {
		case err != nil:
			win.failed++
			win.errors = append(win.errors, fmt.Sprintf("op %d: %v", i, err))
		case secs > deadline:
			win.failed++
			win.errors = append(win.errors, fmt.Sprintf("op %d: %.3f s, over the deadline of %.3f s", i, secs, deadline))
		case stolen > stolenLimit*secs*cpus:
			stolenOps = append(stolenOps, secs)
		default:
			win.good = append(win.good, secs)
			if t != nil {
				win.traced = append(win.traced, secs)
			} else {
				win.untraced = append(win.untraced, secs)
			}
		}
	}
	win.after = readUsage()
	if len(win.good) < minOps {
		win.good = append(win.good, stolenOps...) // a burst as long as the window: nothing better to report
	} else {
		win.setAside = len(stolenOps)
	}
	return win
}
