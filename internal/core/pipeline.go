package core

import (
	"fmt"
	"sort"

	"repro/internal/align"
	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/wire"
)

// Section names, matching the component labels of the paper's dissection
// plots (Fig. 15). SectionWait covers every exposed asynchronous drain: the
// overlapped sequence exchange and the wave pipeline's un-hidden local
// work; it shrinks as more of both hide under communication.
const (
	SectionFasta = "fasta"
	SectionFormA = "form A"
	SectionTrA   = "tr. A"
	SectionFormS = "form S"
	SectionAS    = "AS"
	SectionB     = "(AS)AT"
	SectionSym   = "sym."
	SectionWait  = "wait"
	SectionAlign = "align"
)

// Virtual-cost constants (generic ops charged to the rank clock). The
// absolute values approximate a threaded Cori node; only ratios shape the
// reproduced figures.
const (
	opsPerKmer        = 20  // rolling extraction + dedup per k-mer occurrence
	opsPerSubNeighbor = 120 // bounded search amortized per generated neighbor
	opsPerDPCell      = 4   // vectorized alignment kernel per DP cell
)

// run is the context every driver — Run, BuildIndex, Query — opens first:
// the validated config, the process grid on the block backend
// Config.Transport selects, and the rank clock with the intra-rank thread
// count declared (parallel stages charge compute as ops/min(threads,
// CoresPerNode); paper follow-up: one rank per node, threads inside).
type run struct {
	comm      *mpi.Comm
	grid      *dmat.Grid
	clock     *mpi.Clock
	cfg       Config
	blocks    int // cfg.Blocks, at least 1
	kmerSpace spmat.Index
	gemm      dmat.SpGEMMOpts // matrix-stage multiply options
}

// openRun is the shared prelude. Collective (the grid splits comm). Callers
// defer close.
func openRun(comm *mpi.Comm, cfg Config) (*run, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	grid, err := dmat.NewGrid(comm)
	if err != nil {
		return nil, err
	}
	if cfg.Transport == "codec" || cfg.Transport == "tcp" {
		// tcp ranks live in separate address spaces: only the byte-codec
		// block path can cross the wire.
		grid.Backend = dmat.BackendCodec
	}
	r := &run{comm: comm, grid: grid, clock: comm.Clock(), cfg: cfg,
		blocks: max(cfg.Blocks, 1), kmerSpace: spmat.Index(kmer.SpaceSize(cfg.K))}
	r.gemm = dmat.DefaultSpGEMMOpts()
	r.gemm.Threads = max(cfg.Threads, 1)
	r.clock.SetThreads(r.gemm.Threads)
	return r, nil
}

func (r *run) close() { r.clock.SetThreads(1) }

// Run executes the PASTIS pipeline on this rank's share of the input.
// owned must be the rank's consecutive run of records from the byte-balanced
// FASTA partition (fasta.Partition cuts exactly that). Collective: all
// ranks of comm must call Run with the same Config.
//
// All-vs-all is the many-against-many sweep with the query panel equal to
// the database (arXiv:2303.01845): build the target operands, then sweep A
// (or AS) against Aᵀ in the symmetric frame — upper-triangle assignment,
// lower global index first. The candidate matrix streams through
// cfg.Blocks column panels as memory-bounded waves (sweep.go + wave.go);
// the similarity graph is bit-identical for every Blocks × Threads ×
// rank-count combination.
func Run(comm *mpi.Comm, owned []fasta.Record, cfg Config) (*Result, error) {
	r, err := openRun(comm, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	t, err := buildTarget(r, owned, false)
	if err != nil {
		return nil, err
	}
	var ckpt *checkpointer
	if cfg.CheckpointDir != "" {
		ckpt = &checkpointer{dir: cfg.CheckpointDir, fingerprint: configFingerprint(cfg, comm.Size(), t.store.Total)}
		if cfg.Resume {
			if err := ckpt.resolveResume(comm); err != nil {
				return nil, err
			}
		}
	}
	ops := &operands{r: r, f: symmetricFrame(r.grid), a: t.a, as: t.as, at: t.at, ast: t.ast}
	return sweep(r, ops, t.store, ops.f, ckpt, t.stats)
}

// AllVsAll is the all-vs-all rank body, shared by BuildGraph, pastis.RunRank
// (the tcp worker) and the experiments harness: cut this rank's
// byte-balanced share of the whole input recs (fasta.Partition), Run, and
// gather the graph on rank 0 in (R, C) order. Off rank 0 the Result keeps
// its Stats and EffectiveBlocks and carries no edges. Every rank reads recs
// and none writes it, so in process the ranks share one slice. Collective.
func AllVsAll(comm *mpi.Comm, recs []fasta.Record, cfg Config) (*Result, error) {
	res, err := Run(comm, fasta.Partition(recs, comm.Rank(), comm.Size()), cfg)
	if err != nil {
		return nil, err
	}
	if res.Edges, err = GatherEdges(comm, res.Edges); err != nil {
		return nil, err
	}
	return res, nil
}

// maxAlignPenalty bounds the gap penalties and the x-drop value: what the
// x-drop kernel's 24-bit packed score field holds next to the longest
// alignable pair (align.ErrSequenceTooLong; TestValidateAlignParams holds the
// two bounds together). A negative penalty makes gaps pay, and a huge x-drop
// switches pruning off; neither is an alignment anyone configures.
const maxAlignPenalty = 1 << 20

func validate(cfg Config) error {
	if cfg.K <= 0 || cfg.K > kmer.MaxK {
		return fmt.Errorf("core: k=%d out of range", cfg.K)
	}
	if cfg.SubstituteKmers < 0 {
		return fmt.Errorf("core: negative substitute k-mer count")
	}
	if cfg.MaxKmerFrequency < 0 {
		return fmt.Errorf("core: negative k-mer frequency limit")
	}
	if cfg.Blocks < 0 {
		return fmt.Errorf("core: negative block count")
	}
	if cfg.MemBudget < 0 {
		return fmt.Errorf("core: negative memory budget")
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return fmt.Errorf("core: Config.Resume requires Config.CheckpointDir")
	}
	if cfg.MinIdentity < 0 || cfg.MinIdentity > 1 || cfg.MinCoverage < 0 || cfg.MinCoverage > 1 {
		return fmt.Errorf("core: identity/coverage thresholds must be fractions")
	}
	for _, v := range []struct {
		name  string
		value int
	}{{"GapOpen", cfg.GapOpen}, {"GapExtend", cfg.GapExtend}, {"XDropValue", cfg.XDropValue}} {
		if v.value < 0 || v.value > maxAlignPenalty {
			return fmt.Errorf("core: Config.%s=%d out of range [0, %d]", v.name, v.value, maxAlignPenalty)
		}
	}
	if cfg.Align != AlignNone {
		if _, err := align.KernelFactory(string(cfg.Align)); err != nil {
			return fmt.Errorf("core: Config.Align: %w", err)
		}
	}
	switch cfg.Transport {
	case "", "shared", "codec", "tcp":
	default:
		return fmt.Errorf("core: Config.Transport %q (want \"\", \"shared\", \"codec\" or \"tcp\")", cfg.Transport)
	}
	return nil
}

// GatherEdges collects every rank's edges on rank 0 (nil elsewhere), sorted
// by (R, C) — a pair occurs once, so the order is total. Collective; used
// for output writing and the relevance evaluation.
func GatherEdges(comm *mpi.Comm, edges []Edge) ([]Edge, error) {
	parts, err := comm.TryGatherv(0, appendEdges(nil, edges))
	if err != nil {
		return nil, err
	}
	if parts == nil {
		return nil, nil
	}
	var out []Edge
	for r, part := range parts {
		if out, err = decodeEdges(out, part); err != nil {
			return nil, fmt.Errorf("core: gathered edges from rank %d: %w", r, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].R != out[j].R {
			return out[i].R < out[j].R
		}
		return out[i].C < out[j].C
	})
	return out, nil
}

// appendEdges appends one 56-byte record per edge to dst (R, C, four float
// bit patterns and the score, 8 bytes each) — the one edge encoding, shared
// by the gather above and the wave checkpoints.
func appendEdges(dst []byte, edges []Edge) []byte {
	for _, e := range edges {
		dst = wire.AppendU64(dst, uint64(e.R))
		dst = wire.AppendU64(dst, uint64(e.C))
		dst = wire.AppendF64(dst, e.Weight)
		dst = wire.AppendF64(dst, e.Ident)
		dst = wire.AppendF64(dst, e.Cov)
		dst = wire.AppendF64(dst, e.NS)
		dst = wire.AppendU64(dst, uint64(int64(e.Score)))
	}
	return dst
}

// decodeEdges appends the records packed in buf onto out; a buffer that is
// not a whole number of records is rejected (the slice returned beside the
// error then ends in a partly-zero record and is for discarding).
func decodeEdges(out []Edge, buf []byte) ([]Edge, error) {
	r := wire.NewReader(buf)
	for r.More() {
		out = append(out, Edge{
			R:      spmat.Index(r.U64()),
			C:      spmat.Index(r.U64()),
			Weight: r.F64(),
			Ident:  r.F64(),
			Cov:    r.F64(),
			NS:     r.F64(),
			Score:  int(int64(r.U64())),
		})
	}
	return out, r.Err()
}
