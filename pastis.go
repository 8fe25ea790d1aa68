// Package pastis is a Go reproduction of PASTIS — "Distributed Many-to-Many
// Protein Sequence Alignment using Sparse Matrices" (Selvitopi et al.,
// SC 2020): distributed protein similarity search formulated as sparse
// matrix algebra.
//
// The library builds a protein similarity graph (PSG) from a set of protein
// sequences: sequences are decomposed into k-mers forming the sparse matrix
// A; candidate pairs are the nonzeros of B = A·Aᵀ (exact k-mer matching) or
// (A·S)·Aᵀ where S maps each k-mer to its m nearest substitute k-mers under
// BLOSUM62; candidates are verified by a pluggable alignment kernel —
// Smith-Waterman (sw), x-drop seed extension (xd), adaptive wavefront
// alignment (wfa), or ungapped seed extension (ug), selected by name via
// Config.Align — and filtered by identity and coverage. Kernels report the
// DP cells they actually compute, so the virtual clock charges each
// kernel's true cost (wfa's wavefront cost is near-linear on the
// high-identity pairs that dominate the candidate set).
//
// Kernels also compose into staged alignment cascades (MMseqs2-style
// prefilter → rescue): a cascade spec such as "ug+wfa" or "ug:60+sw" is a
// valid Config.Align value that runs every candidate pair through the
// cheap ungapped prefilter and re-aligns only pairs scoring above the
// permissive gate with the expensive kernel. On collision-heavy candidate
// sets (substitute k-mers without the common-k-mer prune) a cascade
// reproduces the pure rescue-kernel graph at a fraction of its DP cells;
// Stats.PairsPerStage and Stats.CellsPerStage report the per-stage
// breakdown (pairs examined / passed / rejected, cells per stage). See
// docs/ARCHITECTURE.md for how the pieces fit together.
//
// Because Go has no MPI, the distributed runtime is simulated: ranks are
// goroutines exchanging messages through the internal mpi substrate, and a
// deterministic LogGP-style virtual clock — driven by the real operation and
// byte counts of the distributed algorithm — provides the scaling behavior
// the paper measures on up to 2025 Cray XC40 nodes. Results are bit-exact
// across process counts (the paper's reproducibility property).
//
// Parallelism is hybrid, mirroring the paper's one-MPI-rank-per-node with
// OpenMP-threads-inside deployment (made central by the extreme-scale
// follow-up, arXiv:2303.01845): Config.Threads adds intra-rank shared-memory
// workers that multiply SpGEMM column chunks concurrently and align
// candidate pairs in chunks with reusable DP buffers. The graph is
// bit-identical for every thread count; the virtual clock credits parallel
// compute with up to CostModel.CoresPerNode-way speedup.
//
// The pipeline itself is organized as memory-bounded waves (the follow-up's
// blocked design): Config.Blocks splits the candidate matrix into that many
// column panels, and each panel's pruning, symmetrization and alignment
// overlap the next panel's SpGEMM stages. Peak per-rank memory
// (Result.PeakBytes) shrinks roughly with the wave count at the price of
// re-broadcasting A's blocks once per wave; the graph stays bit-identical
// for every wave count.
//
// Quick start:
//
//	data, _ := pastis.GenerateScopeLike(50, 1)
//	cfg := pastis.DefaultConfig()
//	res, _ := pastis.BuildGraph(data.Records, 16, cfg)
//	for _, e := range res.Edges { fmt.Println(e.R, e.C, e.Weight) }
package pastis

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/last"
	"repro/internal/mcl"
	"repro/internal/metrics"
	"repro/internal/mmseqs"
	"repro/internal/mpi"
	"repro/internal/synth"
)

// Re-exported pipeline types; see the internal/core documentation for the
// full semantics.
type (
	// Config parameterizes a pipeline run (k-mer length, substitute k-mers,
	// alignment and weighting modes, filters).
	Config = core.Config
	// Edge is one similarity-graph edge with its alignment statistics.
	Edge = core.Edge
	// Stats carries pipeline counters (nonzeros, alignments, edges).
	Stats = core.Stats
	// StagePairs is the per-stage pair accounting of a cascade run
	// (Stats.PairsPerStage).
	StagePairs = core.StagePairs
	// AlignMode selects the pairwise alignment kernel by registry name.
	AlignMode = core.AlignMode
	// WeightMode selects ANI or normalized-score edge weights.
	WeightMode = core.WeightMode
	// Record is one FASTA record.
	Record = fasta.Record
	// Dataset couples records with ground-truth family labels.
	Dataset = synth.Labeled
	// CostModel holds the virtual-time machine constants.
	CostModel = mpi.CostModel
)

// Alignment and weighting mode constants. Alignment modes name kernels in
// the align package's registry: sw (Smith-Waterman), xd (x-drop seed
// extension), wfa (adaptive wavefront), ug (ungapped seed extension); any
// kernel registered via align.RegisterKernel is equally valid as an
// AlignMode value, as is any cascade spec ("ug+wfa", "ug:60+sw") composing
// registered kernels into a staged prefilter → rescue filter.
const (
	AlignXDrop    = core.AlignXDrop
	AlignSW       = core.AlignSW
	AlignWFA      = core.AlignWFA
	AlignUngapped = core.AlignUngapped
	AlignNone     = core.AlignNone
	WeightANI     = core.WeightANI
	WeightNS      = core.WeightNS
)

// Kernels lists the registered alignment-kernel names (valid Config.Align
// values besides AlignNone) in registration order.
func Kernels() []string {
	modes := core.KernelModes()
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = string(m)
	}
	return names
}

// DefaultConfig mirrors the paper's main configuration: k=6, BLOSUM62 with
// gap open 11/extend 1, x-drop 49, ANI >= 30%, coverage >= 70%, serial
// within each rank (set Config.Threads for intra-rank parallelism).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultCostModel returns the virtual-time constants used by the
// reproduction (Cori-class latency/bandwidth/compute rates).
func DefaultCostModel() CostModel { return mpi.DefaultCostModel() }

// Result is the outcome of a BuildGraph run.
type Result struct {
	Edges []Edge  // the full similarity graph (R < C, each pair once)
	Stats Stats   // global pipeline counters
	Nodes int     // simulated node (rank) count
	Time  float64 // virtual makespan in seconds
	// Sections is the per-component virtual time (max over ranks), keyed by
	// the paper's component names: "fasta", "form A", "tr. A", "form S",
	// "AS", "(AS)AT", "sym.", "wait", "align".
	Sections map[string]float64
	// BytesOnWire is the total communication volume across ranks.
	BytesOnWire int64
	// PeakBytes is the largest per-rank high-water mark of live matrix
	// bytes: the memory-vs-Blocks tradeoff measure of the wave pipeline.
	PeakBytes int64
	// RetryBytes is the share of BytesOnWire re-sent recovering from
	// injected transport faults (zero on a fault-free run). BytesOnWire
	// minus RetryBytes equals the fault-free run's volume bit-for-bit.
	RetryBytes int64
	// EffectiveBlocks is the wave count the overlap sweep actually ran at:
	// Config.Blocks unless memory-budget degradation doubled it (or a
	// resumed checkpoint pinned it).
	EffectiveBlocks int
}

// Fault-tolerance re-exports: FaultPlan schedules deterministic transport
// faults (Config.Faults); ErrInterrupted tags runs ended by Interrupt /
// context cancellation so callers can map them to a clean exit.
type FaultPlan = mpi.FaultPlan

// ErrInterrupted wraps every error produced by cancelling a run (SIGINT via
// BuildGraphContext); test with errors.Is.
var ErrInterrupted = mpi.ErrInterrupted

// CheckNodes rejects a rank count that cannot form the paper's √p×√p process
// grid: it must be a positive perfect square. BuildGraph, BuildIndex and
// OpenIndex (for the manifest's count) apply it; a caller that forks rank
// processes itself, as cmd/pastis -transport tcp does, checks before forking.
func CheckNodes(nodes int) error {
	if q := int(math.Round(math.Sqrt(float64(max(nodes, 0))))); nodes < 1 || q*q != nodes {
		return fmt.Errorf("pastis: %d nodes: the count must be a positive perfect square", nodes)
	}
	return nil
}

// BuildGraph runs the full PASTIS pipeline on a simulated cluster of the
// given node count (must be a perfect square, the paper's p = q² grid
// requirement) and returns the gathered similarity graph. The input records
// are partitioned across ranks with the paper's byte-balanced FASTA
// chunking. Deterministic: the same inputs produce the same graph and the
// same virtual times for any node count.
func BuildGraph(records []Record, nodes int, cfg Config) (*Result, error) {
	return BuildGraphWithModel(records, nodes, cfg, mpi.DefaultCostModel())
}

// BuildGraphWithModel is BuildGraph with custom virtual-time constants.
func BuildGraphWithModel(records []Record, nodes int, cfg Config, model CostModel) (*Result, error) {
	return BuildGraphContext(context.Background(), records, nodes, cfg, model)
}

// BuildGraphContext is BuildGraphWithModel with cooperative cancellation:
// when ctx is cancelled the cluster aborts at the next collective boundary,
// in-flight wave work drains (writing its checkpoint if Config.CheckpointDir
// is set), and the run fails with an error wrapping ErrInterrupted. A run
// checkpointed this way resumes with Config.Resume.
func BuildGraphContext(ctx context.Context, records []Record, nodes int, cfg Config, model CostModel) (*Result, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("pastis: empty input")
	}
	if err := CheckNodes(nodes); err != nil {
		return nil, err
	}
	data := fasta.Bytes(records, 0)
	res, sum, err := mpi.RunLocal(ctx, nodes, model, cfg.Faults, func(c *mpi.Comm) (*core.Result, error) {
		return core.AllVsAll(c, data, cfg)
	})
	if err != nil {
		return nil, err
	}
	return newResult(res, nodes, sum), nil
}

// RunRank executes one rank's share of the all-vs-all pipeline on an
// existing communicator — partition the records with the paper's
// byte-balanced FASTA chunking, run the pipeline, gather the graph — and
// reads the run out with Comm.Summarize. It is the per-process body of a
// multi-process (tcp transport) run, where no single address space sees
// every rank's clock. Every rank returns the same totals; rank 0's Result
// additionally carries the sorted edge list. records must be the full input
// on every rank.
func RunRank(c *mpi.Comm, records []Record, cfg Config) (*Result, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("pastis: empty input")
	}
	res, err := core.AllVsAll(c, fasta.Bytes(records, 0), cfg)
	if err != nil {
		return nil, err
	}
	sum, err := c.Summarize()
	if err != nil {
		return nil, err
	}
	return newResult(res, c.Size(), sum), nil
}

// newResult assembles a Result from the all-vs-all body's and the run's
// Summary, for BuildGraph (in process) and RunRank (over tcp) alike.
func newResult(res *core.Result, nodes int, sum mpi.Summary) *Result {
	return &Result{
		Edges:           res.Edges,
		Stats:           res.Stats,
		Nodes:           nodes,
		Time:            sum.Time,
		Sections:        sum.SectionMax,
		BytesOnWire:     sum.BytesOnWire,
		PeakBytes:       sum.PeakBytes,
		RetryBytes:      sum.RetryBytes,
		EffectiveBlocks: res.EffectiveBlocks,
	}
}

// MMseqs2Config configures the MMseqs2-like baseline.
type MMseqs2Config = mmseqs.Config

// DefaultMMseqs2Config mirrors the paper's MMseqs2 defaults.
func DefaultMMseqs2Config() MMseqs2Config { return mmseqs.DefaultConfig() }

// BaselineResult is the outcome of a baseline run.
type BaselineResult struct {
	Edges []Edge
	Nodes int
	Time  float64
}

// RunMMseqs2Like runs the MMseqs2-style baseline on a simulated cluster of
// the given node count (any positive count; no grid requirement).
func RunMMseqs2Like(records []Record, nodes int, cfg MMseqs2Config) (*BaselineResult, error) {
	edges, makespan, err := mmseqs.RunCluster(records, nodes, cfg, mpi.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	return &BaselineResult{Edges: edges, Nodes: nodes, Time: makespan}, nil
}

// LASTConfig configures the LAST-like baseline.
type LASTConfig = last.Config

// DefaultLASTConfig mirrors the paper's LAST settings.
func DefaultLASTConfig() LASTConfig { return last.DefaultConfig() }

// RunLASTLike runs the LAST-style baseline. Single node by construction
// (the paper's LAST comparator is shared-memory only); the reported time
// models one node doing all the work.
func RunLASTLike(records []Record, cfg LASTConfig) (*BaselineResult, error) {
	edges, makespan, err := last.RunCluster(records, cfg, mpi.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	return &BaselineResult{Edges: edges, Nodes: 1, Time: makespan}, nil
}

// ClusterMCL groups the n-node similarity graph into protein families with
// Markov Clustering (the paper's HipMCL step).
func ClusterMCL(n int, edges []Edge) ([][]int, error) {
	in := make([]mcl.Edge, len(edges))
	for i, e := range edges {
		in[i] = mcl.Edge{R: int64(e.R), C: int64(e.C), Weight: e.Weight}
	}
	return mcl.Cluster(n, in, mcl.DefaultConfig())
}

// ConnectedComponents groups the n-node similarity graph into its connected
// components (the paper's Table II alternative to clustering).
func ConnectedComponents(n int, edges []Edge) [][]int {
	rows := make([]int64, len(edges))
	cols := make([]int64, len(edges))
	for i, e := range edges {
		rows[i], cols[i] = int64(e.R), int64(e.C)
	}
	return cc.FromEdges(n, rows, cols)
}

// PrecisionRecall scores predicted clusters against ground-truth families
// with the paper's weighted measures (Section VI-B).
func PrecisionRecall(clusters [][]int, families []int) (precision, recall float64) {
	return metrics.PrecisionRecall(clusters, families)
}

// GenerateScopeLike builds a deterministic synthetic dataset with the
// structure of the SCOPe family benchmark (ground-truth families for
// precision/recall experiments).
func GenerateScopeLike(families int, seed int64) (*Dataset, error) {
	return synth.Generate(synth.DefaultScopeLike(families, seed))
}

// GenerateMetaclustLike builds a deterministic synthetic dataset with the
// structure of a Metaclust50 subset (for performance experiments).
func GenerateMetaclustLike(sequences int, seed int64) (*Dataset, error) {
	return synth.Generate(synth.DefaultMetaclustLike(sequences, seed))
}

// ReadFASTA parses all records from r.
func ReadFASTA(r io.Reader) ([]Record, error) { return fasta.Parse(r) }

// WriteFASTA writes records to w with the given sequence line width
// (width <= 0 writes single-line sequences).
func WriteFASTA(w io.Writer, recs []Record, width int) error {
	return fasta.Write(w, recs, width)
}
