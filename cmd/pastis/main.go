// Command pastis builds a protein similarity graph from a FASTA file using
// the PASTIS pipeline on a simulated distributed cluster.
//
// Usage:
//
//	pastis -in proteins.fa -out graph.tsv -nodes 16 -subs 25 -align xd -threads 8 -blocks 4
//
// -align selects the pairwise alignment kernel by its registry name — sw
// (Smith-Waterman), xd (x-drop seed extension, the default), wfa (adaptive
// wavefront; fastest on high-identity candidate sets), ug (ungapped seed
// extension, cheapest) — or none to skip alignment for matrix-only runs.
// Cascade specs compose kernels into a staged filter: "-align ug+wfa" runs
// the cheap ungapped prefilter on every candidate pair and re-aligns only
// the survivors with the wavefront kernel (any "stage+stage" combination
// of registered kernels works, with an optional "stage:score" gate
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

// runBuildIndex persists the build-once half of the pipeline for dir.
func runBuildIndex(args []string) {
	fs := flag.NewFlagSet("pastis build-index", flag.ExitOnError)
	var (
		inPath  = fs.String("in", "", "database FASTA file (required)")
		dir     = fs.String("index", "", "directory to write the index into (required)")
		nodes   = fs.Int("nodes", 16, "simulated node count (perfect square); queries must use the same")
		k       = fs.Int("k", 6, "k-mer length")
		subs    = fs.Int("subs", 0, "substitute k-mers per k-mer (0 = exact matching)")
		maxFreq = fs.Int("maxfreq", 0, "discard k-mers occurring more than this many times (0 = off)")
		threads = fs.Int("threads", 1, "intra-rank threads (0 = all host cores)")
		blocks  = fs.Int("blocks", 1, "column panels for the substitute expansion (bounds peak memory)")
		transp  = fs.String("transport", "shared", "block transport: shared or codec")
		stats   = fs.Bool("stats", false, "print build statistics to stderr")
	)
	fs.Parse(args)
	if *inPath == "" || *dir == "" {
		fmt.Fprintln(os.Stderr, "pastis build-index: -in and -index are required")
		fs.Usage()
		os.Exit(2)
	}
	recs := readFASTA(*inPath)

	cfg := pastis.DefaultConfig()
	cfg.K = *k
	cfg.SubstituteKmers = *subs
	cfg.MaxKmerFrequency = *maxFreq
	cfg.Threads = parallel.Resolve(*threads)
	cfg.Blocks = *blocks
	cfg.Transport = *transp

	info, err := pastis.BuildIndex(recs, *nodes, cfg, *dir)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pastis: indexed %d sequences into %s (%d bytes across %d ranks)\n",
		info.Sequences, info.Dir, info.Bytes, info.Nodes)
	if *stats {
		s := info.Stats
		fmt.Fprintf(os.Stderr, "k-mers:         %d\n", s.KmersTotal)
		fmt.Fprintf(os.Stderr, "nnz(A):         %d\n", s.NNZA)
		fmt.Fprintf(os.Stderr, "nnz(S):         %d\n", s.NNZS)
		fmt.Fprintf(os.Stderr, "virtual time:   %.4g s on %d nodes\n", info.Time, info.Nodes)
	}
}

// runQuery serves one query batch from a persisted index.
func runQuery(args []string) {
	fs := flag.NewFlagSet("pastis query", flag.ExitOnError)
	var (
		dir     = fs.String("index", "", "index directory written by build-index (required)")
		inPath  = fs.String("in", "", "query FASTA file (required)")
		outPath = fs.String("out", "-", "output hit list ('-' = stdout)")
		alignFl = fs.String("align", "xd",
			"alignment kernel: "+strings.Join(pastis.Kernels(), "|")+
				", a cascade spec (e.g. ug:60+sw), or none")
		weight  = fs.String("weight", "ani", "edge weight: ani or ns")
		ck      = fs.Int("ck", 0, "common k-mer threshold (0 = off)")
		minID   = fs.Float64("min-identity", 0.30, "ANI filter: minimum identity")
		minCov  = fs.Float64("min-coverage", 0.70, "ANI filter: minimum shorter-sequence coverage")
		xdrop   = fs.Int("xdrop", 49, "x-drop value for seed extension")
		threads = fs.Int("threads", 1, "intra-rank threads (0 = all host cores)")
		batch   = fs.Int("batch", 0, "alignment batch size (0 = default)")
		blocks  = fs.Int("blocks", 1, "candidate-panel waves (bounds peak memory)")
		transp  = fs.String("transport", "shared", "block transport: shared or codec")
		stats   = fs.Bool("stats", false, "print batch statistics to stderr")
	)
	fs.Parse(args)
	if *inPath == "" || *dir == "" {
		fmt.Fprintln(os.Stderr, "pastis query: -index and -in are required")
		fs.Usage()
		os.Exit(2)
	}
	queries := readFASTA(*inPath)

	eng, err := pastis.OpenIndex(*dir)
	if err != nil {
		fatal(err)
	}
	// k, subs and maxfreq are build-time parameters; adopt them from the
	// index manifest instead of asking the caller to repeat them.
	cfg := eng.Configure(pastis.DefaultConfig())
	cfg.CommonKmerThreshold = *ck
	cfg.MinIdentity = *minID
	cfg.MinCoverage = *minCov
	cfg.XDropValue = *xdrop
	cfg.Threads = parallel.Resolve(*threads)
	cfg.BatchSize = *batch
	cfg.Blocks = *blocks
	cfg.Transport = *transp
	cfg.Align = pastis.AlignMode(*alignFl)
	switch *weight {
	case "ani":
		cfg.Weight = pastis.WeightANI
	case "ns":
		cfg.Weight = pastis.WeightNS
	default:
		fatal(fmt.Errorf("unknown -weight %q", *weight))
	}

	res, err := eng.Query(queries, cfg)
	if err != nil {
		fatal(err)
	}

	out := os.Stdout
	if *outPath != "-" {
		out, err = os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
	}
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "#query\ttarget\tweight\tidentity\tcoverage\tns\tscore")
	for _, h := range res.Hits {
		fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%d\n",
			h.QueryID, h.TargetID, h.Weight, h.Ident, h.Cov, h.NS, h.Score)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}

	if *stats {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "queries:        %d (%d cached, %d computed)\n",
			len(queries), res.CacheHits, res.CacheMisses)
		fmt.Fprintf(os.Stderr, "database:       %d sequences on %d nodes\n", eng.Sequences(), eng.Nodes())
		fmt.Fprintf(os.Stderr, "nnz(B):         %d (pruned: %d)\n", s.NNZB, s.NNZBPruned)
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

// avOptions holds the all-vs-all flag set. It is built by newAVOptions so
// the top-level run and the pastis-rank worker (which re-parses the argv
// tail the launcher forwarded after "--") accept the exact same surface.
type avOptions struct {
	fs        *flag.FlagSet
	inPath    *string
	outPath   *string
	nodes     *int
	k         *int
	subs      *int
	alignFl   *string
	weight    *string
	ck        *int
	minID     *float64
	minCov    *float64
	xdrop     *int
	threads   *int
	batch     *int
	blocks    *int
	transp    *string
	ckptDir   *string
	resume    *bool
	mem       *int64
	stats     *bool
	cpuProf   *string
	memProf   *string
	tcpLogDir *string
}

func newAVOptions(name string) *avOptions {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	o := &avOptions{
		fs:      fs,
		inPath:  fs.String("in", "", "input FASTA file (required)"),
		outPath: fs.String("out", "-", "output edge list ('-' = stdout)"),
		nodes:   fs.Int("nodes", 16, "simulated node count (perfect square)"),
		k:       fs.Int("k", 6, "k-mer length"),
		subs:    fs.Int("subs", 0, "substitute k-mers per k-mer (0 = exact matching)"),
		alignFl: fs.String("align", "xd",
			"alignment kernel: "+strings.Join(pastis.Kernels(), "|")+
				", a cascade spec (e.g. ug:60+sw), or none"),
		weight:  fs.String("weight", "ani", "edge weight: ani or ns"),
		ck:      fs.Int("ck", 0, "common k-mer threshold (0 = off; paper: 1 exact / 3 subs)"),
		minID:   fs.Float64("min-identity", 0.30, "ANI filter: minimum identity"),
		minCov:  fs.Float64("min-coverage", 0.70, "ANI filter: minimum shorter-sequence coverage"),
		xdrop:   fs.Int("xdrop", 49, "x-drop value for seed extension"),
		threads: fs.Int("threads", 1, "intra-rank threads for SpGEMM and alignment (0 = all host cores)"),
		batch:   fs.Int("batch", 0, "alignment batch size (0 = default)"),
		blocks:  fs.Int("blocks", 1, "overlap waves: column panels of the candidate matrix (bounds peak memory)"),
		transp: fs.String("transport", "shared",
			"block transport: shared (zero-copy), codec (byte serialization reference) or tcp (one OS process per rank)"),
		ckptDir:   fs.String("checkpoint", "", "directory for per-wave checkpoints (resumable with -resume)"),
		resume:    fs.Bool("resume", false, "resume from the newest checkpoint in -checkpoint dir"),
		mem:       fs.Int64("mem", 0, "per-rank memory budget in bytes (0 = unlimited); breaches retry at doubled -blocks"),
		stats:     fs.Bool("stats", false, "print pipeline statistics to stderr"),
		cpuProf:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProf:   fs.String("memprofile", "", "write a heap profile to this file"),
		tcpLogDir: fs.String("tcp-logdir", "", "per-rank worker log directory for -transport tcp (default: under the system temp dir)"),
	}
	return o
}

// config assembles the pipeline Config from parsed flags.
func (o *avOptions) config() pastis.Config {
	cfg := pastis.DefaultConfig()
	cfg.K = *o.k
	cfg.SubstituteKmers = *o.subs
	cfg.CommonKmerThreshold = *o.ck
	cfg.MinIdentity = *o.minID
	cfg.MinCoverage = *o.minCov
	cfg.XDropValue = *o.xdrop
	cfg.Threads = parallel.Resolve(*o.threads)
	cfg.BatchSize = *o.batch
	cfg.Blocks = *o.blocks
	cfg.Transport = *o.transp
	cfg.CheckpointDir = *o.ckptDir
	cfg.Resume = *o.resume
	cfg.MemBudget = *o.mem
	// Any registered kernel name (or "none") is valid; core's config
	// validation rejects unknown names with the registered list.
	cfg.Align = pastis.AlignMode(*o.alignFl)
	switch *o.weight {
	case "ani":
		cfg.Weight = pastis.WeightANI
	case "ns":
		cfg.Weight = pastis.WeightNS
	default:
		fatal(fmt.Errorf("unknown -weight %q", *o.weight))
	}
	return cfg
}

// writeEdges renders the similarity graph as the TSV edge list.
func writeEdges(outPath string, recs []pastis.Record, edges []pastis.Edge) {
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
	fmt.Fprintln(w, "#seq1\tseq2\tweight\tidentity\tcoverage\tns\tscore")
	for _, e := range edges {
		fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%.4f\t%.4f\t%d\n",
			recs[e.R].ID, recs[e.C].ID, e.Weight, e.Ident, e.Cov, e.NS, e.Score)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

// printStats writes the -stats dissection to stderr.
func printStats(res *pastis.Result, alignFl string, blocks int) {
	s := res.Stats
	fmt.Fprintf(os.Stderr, "sequences:      %d\n", s.NumSeqs)
	fmt.Fprintf(os.Stderr, "k-mers:         %d\n", s.KmersTotal)
	fmt.Fprintf(os.Stderr, "nnz(A):         %d\n", s.NNZA)
	fmt.Fprintf(os.Stderr, "nnz(S):         %d\n", s.NNZS)
	fmt.Fprintf(os.Stderr, "nnz(B):         %d (pruned: %d)\n", s.NNZB, s.NNZBPruned)
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

func allVsAll(args []string) {
	o := newAVOptions("pastis")
	o.fs.Parse(args)
	if *o.inPath == "" {
		fmt.Fprintln(os.Stderr, "pastis: -in is required")
		o.fs.Usage()
		os.Exit(2)
	}
	if *o.transp == "tcp" {
		// The in-process path checks inside BuildGraph; here the count sizes
		// a fork loop first.
		if err := pastis.CheckNodes(*o.nodes); err != nil {
			fatal(err)
		}
		launchTCPRun(o, args)
		return
	}
	startProfiles(*o.cpuProf, *o.memProf)
	defer finishProfiles()

	recs := readFASTA(*o.inPath)
	cfg := o.config()

	// SIGINT/SIGTERM cancel the run at the next collective boundary: the
	// in-flight wave drains (its checkpoint lands if -checkpoint is set)
	// and the process exits 130, the conventional interrupted status.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	res, err := pastis.BuildGraphContext(ctx, recs, *o.nodes, cfg, pastis.DefaultCostModel())
	if err != nil {
		if errors.Is(err, pastis.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, "pastis: interrupted")
			if *o.ckptDir != "" {
				fmt.Fprintf(os.Stderr, "pastis: resume with -checkpoint %s -resume\n", *o.ckptDir)
			}
			exit(130)
		}
		fatal(err)
	}
	stopSignals()

	writeEdges(*o.outPath, recs, res.Edges)
	if *o.stats {
		printStats(res, *o.alignFl, *o.blocks)
	}
}

// launchTCPRun is the parent half of -transport tcp: fork one pastis-rank
// worker per node, forwarding this process's own argv after "--" so the
// workers parse the identical configuration, and mirror rank 0's output.
func launchTCPRun(o *avOptions, args []string) {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	logDir := *o.tcpLogDir
	if logDir == "" {
		logDir = filepath.Join(os.TempDir(), fmt.Sprintf("pastis-tcp-%d", os.Getpid()))
	}
	err = mpi.LaunchTCP(mpi.TCPLaunch{
		Procs:   *o.nodes,
		Command: exe,
		Args: func(rank int) []string {
			head := []string{"pastis-rank", "-rank", strconv.Itoa(rank), "-size", strconv.Itoa(*o.nodes), "--"}
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
	o := newAVOptions("pastis pastis-rank")
	o.fs.Parse(fs.Args())
	if *o.inPath == "" {
		fatal(fmt.Errorf("pastis-rank %d: -in is required", *rank))
	}
	// Each worker is its own process: suffix the profile paths per rank so
	// the fleet does not clobber one file.
	suffix := func(p string) string {
		if p == "" {
			return ""
		}
		return fmt.Sprintf("%s.rank-%d", p, *rank)
	}
	startProfiles(suffix(*o.cpuProf), suffix(*o.memProf))
	defer finishProfiles()
	recs := readFASTA(*o.inPath)
	cfg := o.config()

	cl, err := mpi.StartTCPWorker(*rank, *size, pastis.DefaultCostModel(), os.Stdin, os.Stdout)
	if err != nil {
		fatal(err)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	finished := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			cl.Interrupt(context.Cause(ctx))
		case <-finished:
		}
	}()

	var res *pastis.Result
	err = cl.Run(func(c *mpi.Comm) error {
		r, err := pastis.RunRank(c, recs, cfg)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	close(finished)
	tcpStats, _ := cl.TCPStats()
	if cerr := cl.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		if errors.Is(err, pastis.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, "pastis: interrupted")
			if *o.ckptDir != "" {
				fmt.Fprintf(os.Stderr, "pastis: resume with -checkpoint %s -resume\n", *o.ckptDir)
			}
			exit(130)
		}
		fatal(err)
	}
	if *rank != 0 {
		return
	}
	writeEdges(*o.outPath, recs, res.Edges)
	if *o.stats {
		printStats(res, *o.alignFl, *o.blocks)
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
