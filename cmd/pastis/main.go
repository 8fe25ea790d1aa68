// Command pastis builds a protein similarity graph from a FASTA file using
// the PASTIS pipeline on a simulated distributed cluster.
//
// Usage:
//
//	pastis -in proteins.fa -out graph.tsv -nodes 16 -subs 25 -align xd -threads 8 -blocks 4
//
// -align selects the pairwise alignment kernel by its kernel-table name — sw
// (Smith-Waterman), xd (x-drop seed extension, the default), wfa (adaptive
// wavefront; fastest on high-identity candidate sets), ug (ungapped seed
// extension, cheapest) — or none to skip alignment for matrix-only runs.
// Cascade specs compose kernels into a staged filter: "-align ug+wfa" runs
// the cheap ungapped prefilter on every candidate pair and re-aligns only
// the survivors with the wavefront kernel (any "stage+stage" combination
// of table kernels works, with an optional "stage:score" gate
// threshold, e.g. "ug:60+sw"). With -stats, cascade runs print the
// per-stage pair and DP-cell breakdown.
//
// The output is a tab-separated edge list: the names of the two sequences,
// the edge weight, identity, coverage, normalized score and raw score.
//
// Two subcommands split the pipeline for serving:
//
//	pastis build-index -in db.fa -index idxdir -nodes 16 -subs 25
//	pastis query -index idxdir -in queries.fa -out hits.tsv
//
// build-index persists the target-side matrices once; query answers any
// number of batches against them, bit-identical to what the all-vs-all run
// would report for those pairs.
//
// -transport selects the block transport backend. shared (default) and
// codec run every rank as a goroutine of this process; tcp forks one OS
// process per rank (the hidden pastis-rank worker mode) and moves every
// message over length-prefixed checksummed loopback TCP frames. The edge
// list, statistics and virtual clock are bit-identical across all three;
// -tcp-logdir chooses where the per-rank worker logs land.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"repro"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/profile"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "build-index":
			runBuildIndex(os.Args[2:])
			return
		case "query":
			runQuery(os.Args[2:])
			return
		case "pastis-rank":
			// Hidden worker mode: one rank of a -transport tcp run,
			// launched by the parent pastis process.
			runTCPRank(os.Args[2:])
			return
		}
	}
	allVsAll(os.Args[1:])
}

// command is a bit per subcommand: flagSet registers each flag for the
// subcommands its mask names.
type command uint8

const (
	cmdAllVsAll command = 1 << iota
	cmdBuildIndex
	cmdQuery
)

// options holds the value of every flag of every subcommand.
type options struct {
	in, out, index   string
	nodes            int
	k, subs, maxFreq int

	align, weight string
	ck            int
	minID, minCov float64
	xdrop         int

	threads, blocks int
	transport       string
	stats           bool

	ckptDir   string
	resume    bool
	mem       int64
	cpuProf   string
	memProf   string
	tcpLogDir string
}

// flagSet builds subcommand c's flag set over o. It is the whole CLI
// surface: each flag is registered by exactly one line, for the subcommands
// named in front of it, so a name, a default or a help text cannot drift
// between subcommands (TestCLIFlagSurface pins the per-subcommand result).
// A flag c does not take lands on a set nobody parses, which leaves its
// option at the default — so config assembles every subcommand's Config the
// same way.
func (o *options) flagSet(name string, c command) *flag.FlagSet {
	taken, untaken := flag.NewFlagSet(name, flag.ExitOnError), flag.NewFlagSet("", flag.ContinueOnError)
	on := func(takers command) *flag.FlagSet {
		if takers&c != 0 {
			return taken
		}
		return untaken
	}
	const (
		all       = cmdAllVsAll | cmdBuildIndex | cmdQuery
		avsaBuild = cmdAllVsAll | cmdBuildIndex
		avsaQuery = cmdAllVsAll | cmdQuery
	)
	// Files and the cluster size (a query runs on its index's node count).
	on(all).StringVar(&o.in, "in", "", "input FASTA file: the sequences, the database or the query batch (required)")
	on(avsaQuery).StringVar(&o.out, "out", "-", "output edge or hit list ('-' = stdout)")
	on(cmdBuildIndex|cmdQuery).StringVar(&o.index, "index", "", "index directory: build-index writes it, query reads it (required)")
	on(avsaBuild).IntVar(&o.nodes, "nodes", 16, "simulated node count (perfect square)")

	// Shape: what the persisted matrices depend on. query adopts these from
	// the index manifest instead.
	on(avsaBuild).IntVar(&o.k, "k", 6, "k-mer length")
	on(avsaBuild).IntVar(&o.subs, "subs", 0, "substitute k-mers per k-mer (0 = exact matching)")
	on(cmdBuildIndex).IntVar(&o.maxFreq, "maxfreq", 0, "discard k-mers occurring more than this many times (0 = off)")

	// Align: kernel, weight and filters act after the matrix stages, so an
	// index is built without them.
	on(avsaQuery).StringVar(&o.align, "align", "xd",
		"alignment kernel: "+strings.Join(pastis.Kernels(), "|")+", a cascade spec (e.g. ug:60+sw), or none")
	on(avsaQuery).StringVar(&o.weight, "weight", "ani", "edge weight: ani or ns")
	on(avsaQuery).IntVar(&o.ck, "ck", 0, "common k-mer threshold (0 = off; paper: 1 exact / 3 subs)")
	on(avsaQuery).Float64Var(&o.minID, "min-identity", 0.30, "ANI filter: minimum identity")
	on(avsaQuery).Float64Var(&o.minCov, "min-coverage", 0.70, "ANI filter: minimum shorter-sequence coverage")
	on(avsaQuery).IntVar(&o.xdrop, "xdrop", 49, "x-drop value for seed extension")

	// Machine: knobs that leave the output bit-identical.
	on(all).IntVar(&o.threads, "threads", 1, "intra-rank threads for SpGEMM and alignment (0 = all host cores)")
	on(avsaQuery).IntVar(&o.blocks, "blocks", 1, "column panels of the candidate matrix; bounds peak memory")
	on(all).StringVar(&o.transport, "transport", "shared",
		"block transport: shared (zero-copy) or codec (byte serialization reference); all-vs-all also takes tcp (one OS process per rank)")
	on(all).BoolVar(&o.stats, "stats", false, "print run statistics to stderr")

	// All-vs-all only: fault tolerance, profiling, the tcp worker logs.
	on(cmdAllVsAll).StringVar(&o.ckptDir, "checkpoint", "", "directory for per-wave checkpoints (resumable with -resume)")
	on(cmdAllVsAll).BoolVar(&o.resume, "resume", false, "resume from the newest checkpoint in -checkpoint dir")
	on(cmdAllVsAll).Int64Var(&o.mem, "mem", 0, "per-rank memory budget in bytes (0 = unlimited), checked at wave boundaries: a breach during the sweep retries at doubled -blocks, one before it fails the run")
	on(cmdAllVsAll).StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	on(cmdAllVsAll).StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file")
	on(cmdAllVsAll).StringVar(&o.tcpLogDir, "tcp-logdir", "",
		"per-rank worker log directory for -transport tcp (default: under the system temp dir)")
	return taken
}

// parse parses args as subcommand c's flags and insists on the file flags
// every run needs: -in, and -index where there is an index.
func parse(name string, c command, args []string) *options {
	o := new(options)
	fs := o.flagSet(name, c)
	fs.Parse(args)
	if hasIndex := c != cmdAllVsAll; o.in == "" || (hasIndex && o.index == "") {
		need := "-in is"
		if hasIndex {
			need = "-in and -index are"
		}
		fmt.Fprintf(os.Stderr, "%s: %s required\n", name, need)
		fs.Usage()
		os.Exit(2)
	}
	return o
}

// config assembles the pipeline Config from the parsed flags — the one
// assembly for every subcommand (query then adopts the index's shape).
func (o *options) config() pastis.Config {
	cfg := pastis.DefaultConfig()
	cfg.K = o.k
	cfg.SubstituteKmers = o.subs
	cfg.MaxKmerFrequency = o.maxFreq
	// Any kernel name or cascade spec (or "none") is valid; core's config
	// validation rejects unknown names with the kernel list.
	cfg.Align = pastis.AlignMode(o.align)
	switch o.weight {
	case "ani":
		cfg.Weight = pastis.WeightANI
	case "ns":
		cfg.Weight = pastis.WeightNS
	default:
		fatal(fmt.Errorf("unknown -weight %q", o.weight))
	}
	cfg.CommonKmerThreshold = o.ck
	cfg.MinIdentity = o.minID
	cfg.MinCoverage = o.minCov
	cfg.XDropValue = o.xdrop
	cfg.Threads = parallel.Resolve(o.threads)
	cfg.Blocks = o.blocks
	cfg.Transport = o.transport
	cfg.CheckpointDir = o.ckptDir
	cfg.Resume = o.resume
	cfg.MemBudget = o.mem
	return cfg
}

// runBuildIndex persists the build-once half of the pipeline for dir.
func runBuildIndex(args []string) {
	o := parse("pastis build-index", cmdBuildIndex, args)
	recs := readFASTA(o.in)
	info, err := pastis.BuildIndex(recs, o.nodes, o.config(), o.index)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pastis: indexed %d sequences into %s (%d bytes across %d ranks)\n",
		info.Sequences, info.Dir, info.Bytes, info.Nodes)
	if o.stats {
		s := info.Stats
		fmt.Fprintf(os.Stderr, "k-mers:         %d\n", s.KmersTotal)
		fmt.Fprintf(os.Stderr, "nnz(A):         %d\n", s.NNZA)
		fmt.Fprintf(os.Stderr, "nnz(AS):        %d\n", s.NNZAS)
		fmt.Fprintf(os.Stderr, "virtual time:   %.4g s on %d nodes\n", info.Time, info.Nodes)
	}
}

// runQuery serves one query batch from a persisted index.
func runQuery(args []string) {
	o := parse("pastis query", cmdQuery, args)
	queries := readFASTA(o.in)
	eng, err := pastis.OpenIndex(o.index)
	if err != nil {
		fatal(err)
	}
	// k, subs and maxfreq are build-time parameters; adopt them from the
	// index manifest instead of asking the caller to repeat them.
	res, err := eng.Query(queries, eng.Configure(o.config()))
	if err != nil {
		fatal(err)
	}
	writeTSV(o.out, "#query\ttarget", len(res.Hits), func(i int) tsvRow {
		h := res.Hits[i]
		return tsvRow{h.QueryID, h.TargetID, h.Weight, h.Ident, h.Cov, h.NS, h.Score}
	})
	if o.stats {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "queries:        %d (%d cached, %d computed)\n",
			len(queries), res.CacheHits, res.CacheMisses)
		fmt.Fprintf(os.Stderr, "database:       %d sequences on %d nodes\n", eng.Sequences(), eng.Nodes())
		fmt.Fprintf(os.Stderr, "nnz(B):         %d owned pairs (pruned: %d)\n", s.NNZB, s.NNZBPruned)
		fmt.Fprintf(os.Stderr, "pairs aligned:  %d\n", s.PairsAligned)
		fmt.Fprintf(os.Stderr, "hits:           %d\n", len(res.Hits))
		fmt.Fprintf(os.Stderr, "virtual time:   %.4g s\n", res.Time)
	}
}

func readFASTA(path string) []pastis.Record {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	recs, err := pastis.ReadFASTA(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	return recs
}

// tsvRow is one line of either output: a graph edge or a query hit, named
// by the two sequence IDs.
type tsvRow struct {
	a, b                   string
	weight, ident, cov, ns float64
	score                  int
}

// writeTSV renders n rows under "<names>\tweight\tidentity\tcoverage\tns\tscore":
// the one row format of the edge list and the hit list.
func writeTSV(outPath, names string, n int, row func(i int) tsvRow) {
	out := os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, names+"\tweight\tidentity\tcoverage\tns\tscore")
	for i := 0; i < n; i++ {
		r := row(i)
		fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%d\n", r.a, r.b, r.weight, r.ident, r.cov, r.ns, r.score)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

// writeEdges renders the similarity graph as the TSV edge list.
func writeEdges(outPath string, recs []pastis.Record, edges []pastis.Edge) {
	writeTSV(outPath, "#seq1\tseq2", len(edges), func(i int) tsvRow {
		e := edges[i]
		return tsvRow{recs[e.R].ID, recs[e.C].ID, e.Weight, e.Ident, e.Cov, e.NS, e.Score}
	})
}

// printStats writes the -stats dissection to stderr.
func printStats(res *pastis.Result, alignFl string, blocks int) {
	s := res.Stats
	fmt.Fprintf(os.Stderr, "sequences:      %d\n", s.NumSeqs)
	fmt.Fprintf(os.Stderr, "k-mers:         %d\n", s.KmersTotal)
	fmt.Fprintf(os.Stderr, "nnz(A):         %d\n", s.NNZA)
	fmt.Fprintf(os.Stderr, "nnz(AS):        %d\n", s.NNZAS)
	fmt.Fprintf(os.Stderr, "nnz(B):         %d owned pairs (pruned: %d)\n", s.NNZB, s.NNZBPruned)
	fmt.Fprintf(os.Stderr, "pairs aligned:  %d\n", s.PairsAligned)
	fmt.Fprintf(os.Stderr, "dp cells:       %d (%s kernel)\n", s.CellsComputed, alignFl)
	for i, sp := range s.PairsPerStage {
		role := "prefilter"
		if i == len(s.PairsPerStage)-1 {
			role = "rescue"
		}
		fmt.Fprintf(os.Stderr, "  stage %-4s    %-9s  examined %d  passed %d  rejected %d  cells %d\n",
			sp.Name, role, sp.Examined, sp.Passed, sp.Rejected, s.CellsPerStage[i])
	}
	fmt.Fprintf(os.Stderr, "edges kept:     %d\n", s.EdgesKept)
	fmt.Fprintf(os.Stderr, "virtual time:   %.4g s on %d nodes\n", res.Time, res.Nodes)
	fmt.Fprintf(os.Stderr, "bytes on wire:  %d\n", res.BytesOnWire)
	fmt.Fprintf(os.Stderr, "peak bytes:     %d per rank (blocks=%d)\n", res.PeakBytes, res.EffectiveBlocks)
	if res.EffectiveBlocks != blocks {
		fmt.Fprintf(os.Stderr, "degraded:       -mem budget raised blocks %d -> %d\n", blocks, res.EffectiveBlocks)
	}
	if res.RetryBytes > 0 {
		fmt.Fprintf(os.Stderr, "retry bytes:    %d re-sent recovering from faults\n", res.RetryBytes)
	}
}

// finishRun is the one exit path of an all-vs-all run, in process or as a
// tcp worker: an interrupted run exits 130, the conventional status, after
// saying how to resume; any other error exits 1; nil returns.
func (o *options) finishRun(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, pastis.ErrInterrupted) {
		fmt.Fprintln(os.Stderr, "pastis: interrupted")
		if o.ckptDir != "" {
			fmt.Fprintf(os.Stderr, "pastis: resume with -checkpoint %s -resume\n", o.ckptDir)
		}
		exit(130)
	}
	fatal(err)
}

func allVsAll(args []string) {
	o := parse("pastis", cmdAllVsAll, args)
	if o.transport == "tcp" {
		// The in-process path checks inside BuildGraph; here the count sizes
		// a fork loop first.
		if err := pastis.CheckNodes(o.nodes); err != nil {
			fatal(err)
		}
		launchTCPRun(o, args)
		return
	}
	startProfiles(o.cpuProf, o.memProf)
	defer finishProfiles()

	recs := readFASTA(o.in)
	cfg := o.config()

	// SIGINT/SIGTERM cancel the run at the next collective boundary: the
	// in-flight wave drains (its checkpoint lands if -checkpoint is set).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	res, err := pastis.BuildGraphContext(ctx, recs, o.nodes, cfg, pastis.DefaultCostModel())
	o.finishRun(err)
	stopSignals()

	writeEdges(o.out, recs, res.Edges)
	if o.stats {
		printStats(res, o.align, o.blocks)
	}
}

// launchTCPRun is the parent half of -transport tcp: fork one pastis-rank
// worker per node, forwarding this process's own argv after "--" so the
// workers parse the identical configuration, and mirror rank 0's output.
func launchTCPRun(o *options, args []string) {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	logDir := o.tcpLogDir
	if logDir == "" {
		logDir = filepath.Join(os.TempDir(), fmt.Sprintf("pastis-tcp-%d", os.Getpid()))
	}
	err = mpi.LaunchTCP(mpi.TCPLaunch{
		Procs:   o.nodes,
		Command: exe,
		Args: func(rank int) []string {
			head := []string{"pastis-rank", "-rank", strconv.Itoa(rank), "-size", strconv.Itoa(o.nodes), "--"}
			return append(head, args...)
		},
		LogDir: logDir,
		Stdout: os.Stdout,
		Stderr: os.Stderr,
	})
	if err != nil {
		// Workers report their own failure on (mirrored) stderr; preserve
		// the worker's exit status — 130 keeps interruption observable.
		if code := mpi.ExitCode(err); code > 0 {
			fmt.Fprintf(os.Stderr, "pastis: %v\n", err)
			exit(code)
		}
		fatal(err)
	}
}

// runTCPRank is one rank of a -transport tcp run: build the TCP mesh over
// the launcher's stdin/stdout address exchange, run the rank's pipeline
// share, and (on rank 0) emit the edge list and statistics.
func runTCPRank(args []string) {
	fs := flag.NewFlagSet("pastis pastis-rank", flag.ExitOnError)
	rank := fs.Int("rank", 0, "this worker's rank")
	size := fs.Int("size", 1, "total rank count")
	fs.Parse(args)
	// The launcher forwarded the parent's own argv after "--": the worker
	// parses the identical all-vs-all surface.
	o := parse(fmt.Sprintf("pastis pastis-rank %d", *rank), cmdAllVsAll, fs.Args())
	// Each worker is its own process: suffix the profile paths per rank so
	// the fleet does not clobber one file.
	suffix := func(p string) string {
		if p == "" {
			return ""
		}
		return fmt.Sprintf("%s.rank-%d", p, *rank)
	}
	startProfiles(suffix(o.cpuProf), suffix(o.memProf))
	defer finishProfiles()
	recs := readFASTA(o.in)
	cfg := o.config()

	cl, err := mpi.StartTCPWorker(*rank, *size, pastis.DefaultCostModel(), os.Stdin, os.Stdout)
	if err != nil {
		fatal(err)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	stopWatch := cl.InterruptOn(ctx)
	var res *pastis.Result
	err = cl.Run(func(c *mpi.Comm) (err error) {
		res, err = pastis.RunRank(c, recs, cfg)
		return err
	})
	stopWatch()
	tcpStats, _ := cl.TCPStats()
	if cerr := cl.Close(); err == nil && cerr != nil {
		err = cerr
	}
	o.finishRun(err)
	if *rank != 0 {
		return
	}
	writeEdges(o.out, recs, res.Edges)
	if o.stats {
		printStats(res, o.align, o.blocks)
		fmt.Fprintf(os.Stderr, "tcp comm wall:  %v on rank 0 (%d frames / %d bytes sent, %d frames / %d bytes received)\n",
			tcpStats.CommWall, tcpStats.FramesSent, tcpStats.BytesSent, tcpStats.FramesReceived, tcpStats.BytesReceived)
	}
}

// stopProfiles flushes the -cpuprofile/-memprofile output; idempotent.
// os.Exit skips deferred calls, so every exit taken after startProfiles goes
// through exit: the runs one most wants a profile of (a -mem breach, an
// interrupt mid-wave) are the ones that do not return from main.
var stopProfiles = func() error { return nil }

func startProfiles(cpuPath, memPath string) {
	stop, err := profile.Start(cpuPath, memPath)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
}

// finishProfiles is the deferred stop of a run that returns normally: a
// profile that cannot be written fails the run.
func finishProfiles() {
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
}

func exit(code int) {
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "pastis:", err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pastis:", err)
	exit(1)
}
