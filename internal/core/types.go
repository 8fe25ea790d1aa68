// Package core implements the PASTIS pipeline (paper Sections IV-V): k-mer
// matrix construction, substitute k-mer expansion, distributed overlap
// detection via SpGEMM with custom semirings, overlapped sequence exchange,
// pairwise alignment with the computation-to-data upper-triangle assignment,
// and the similarity filter that yields the protein similarity graph.
//
// There is one computation with three callers (pipeline.go, index.go,
// query.go): the target build (stage_input.go) forms the database operands,
// and one blocked-wave sweep (sweep.go + wave.go) streams the candidate
// matrix through Config.Blocks column panels while each panel's pruning,
// symmetrization and batched alignment (stage_align.go) overlap the next
// panel's SUMMA stages. All-vs-all is build + sweep with the query panel
// equal to the database; BuildIndex is build + persist; Query sweeps a
// batch panel against a loaded index. Alignment
// dispatches through the align package's kernel registry — Config.Align
// names a primitive kernel ("sw", "xd", "wfa", "ug") or a staged cascade
// spec ("ug+wfa"); cascade runs surface per-stage pair and cell
// breakdowns in Stats. The similarity graph and Stats are bit-identical for
// every rank count × thread count × wave count (the paper's
// reproducibility property; held at 1, 4, 9 and 16 ranks by
// TestProcessCountOblivious, because every seed lives in its pair's frame
// from birth — see frame below). docs/ARCHITECTURE.md walks the dataflow;
// docs/COST_MODEL.md explains how the stages charge the virtual clock.
package core

import (
	"strings"

	"repro/internal/align"
	"repro/internal/dmat"
	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/wire"
)

// AlignMode selects the pairwise alignment kernel by name (paper Section
// IV-E). Valid values are AlignNone and the names the align package's
// KernelFactory resolves — the built-ins below, anything registered via
// align.RegisterKernel, and staged cascade specs composing registered
// kernels ("ug+wfa", "ug:60+sw") — so new kernels and kernel combinations
// become pipeline modes without touching this package. The zero value ("")
// is invalid, consistent with the zero Config being unrunnable: validation
// rejects it with the registered-kernel list; start from DefaultConfig.
type AlignMode string

const (
	// AlignXDrop is seed-and-extend with gapped x-drop (PASTIS-XD).
	AlignXDrop AlignMode = "xd"
	// AlignSW is full Smith-Waterman local alignment (PASTIS-SW).
	AlignSW AlignMode = "sw"
	// AlignWFA is gap-affine wavefront alignment with adaptive pruning:
	// SW-equivalent accept/reject decisions on the high-identity pairs that
	// dominate the post-SpGEMM candidate set, at a fraction of the DP cells.
	// The alignment is global, so coverage is always 1 and MinCoverage has
	// no effect; prefer sw/xd when local-domain discrimination matters.
	AlignWFA AlignMode = "wfa"
	// AlignUngapped is ungapped seed extension (the MMseqs2 prefilter
	// alignment): the cheapest kernel, trading gapped-homology recall.
	AlignUngapped AlignMode = "ug"
	// AlignNone skips alignment; used by the matrix-only scaling studies
	// (paper Figs. 14-16 exclude alignment).
	AlignNone AlignMode = "none"
)

// String renders the mode for labels and logs: kernel names upper-cased
// ("SW", "UG+WFA"), AlignNone as "none".
func (m AlignMode) String() string {
	if m == AlignNone {
		return "none"
	}
	return strings.ToUpper(string(m))
}

// KernelModes lists every registered alignment kernel as an AlignMode, in
// registration order (sw, xd, wfa, ug for the built-ins). Experiments sweep
// this instead of hard-coding kernel lists.
func KernelModes() []AlignMode {
	names := align.Kernels()
	modes := make([]AlignMode, len(names))
	for i, n := range names {
		modes[i] = AlignMode(n)
	}
	return modes
}

// WeightMode selects the similarity-graph edge weight (paper Section VI-B).
type WeightMode int

const (
	// WeightANI weights edges by average nucleotide/amino-acid identity and
	// applies the 30% identity / 70% coverage filters.
	WeightANI WeightMode = iota
	// WeightNS weights edges by normalized raw score with no cut-off.
	WeightNS
)

// String returns the paper's name for the weighting scheme (ANI or NS).
func (m WeightMode) String() string {
	if m == WeightNS {
		return "NS"
	}
	return "ANI"
}

// Config parameterizes one pipeline run. The zero value is not runnable;
// start from DefaultConfig.
type Config struct {
	K               int // k-mer length (paper uses 6)
	SubstituteKmers int // m: number of substitute k-mers; 0 = exact matching

	Align  AlignMode
	Weight WeightMode

	// CommonKmerThreshold t eliminates pairs sharing t or fewer k-mers
	// before alignment (the CK variants; paper uses t=1 for exact and t=3
	// for substitute k-mers). 0 disables the filter.
	CommonKmerThreshold int

	// MaxKmerFrequency drops k-mers occurring in more than this many
	// sequences before overlap detection — the pre-processing analysis the
	// paper lists as future work ("whether some of them can be eliminated
	// without sacrificing recall too much"): over-represented k-mers (low
	// complexity regions) contribute quadratically many candidate pairs
	// with little evidence of homology. 0 disables the filter.
	MaxKmerFrequency int

	// Similarity filter applied in ANI mode (paper Section IV-F).
	MinIdentity float64
	MinCoverage float64

	GapOpen, GapExtend int
	XDropValue         int

	// Threads is the intra-rank thread count for the compute-heavy stages:
	// local SpGEMM multiplies chunks of B's columns concurrently and
	// alignment runs in chunks on a worker pool (the hybrid MPI+OpenMP
	// parallelism of the extreme-scale follow-up paper). Results are
	// bit-identical for every value. <= 1 runs serially; the virtual clock
	// credits at most CostModel.CoresPerNode-way speedup.
	Threads int

	// Blocks partitions the overlap computation into this many column
	// panels, processed as memory-bounded waves (the extreme-scale
	// follow-up's blocked pipeline, arXiv:2303.01845): panel i's pruning,
	// symmetrization and alignment run on the worker pool while panel i+1's
	// SUMMA stages proceed. Peak per-rank memory shrinks roughly with the
	// wave count at the price of re-broadcasting A's blocks once per wave;
	// the similarity graph is bit-identical for every value. <= 1 computes
	// the candidate matrix in a single wave (the SC20 shape).
	Blocks int

	// Transport selects the block transport backend: "" or "shared" is the
	// zero-copy shared-memory path (collectives hand immutable references,
	// charging the clock with the analytically computed wire bytes);
	// "codec" forces full byte serialization — the deterministic reference
	// path and wire format. "tcp" selects the codec block path on a
	// cluster whose ranks are separate OS processes exchanging
	// length-prefixed checksummed frames over loopback TCP (mpi.LaunchTCP /
	// mpi.NewTCPCluster); the pipeline itself is transport-agnostic and the
	// similarity graph AND the virtual clock (Time, BytesOnWire, PeakBytes)
	// are bit-identical across all three.
	Transport string

	// Faults, when non-nil, is the deterministic chaos schedule armed on the
	// cluster before the run: the transport injects dropped/corrupted/delayed
	// collectives and one-shot rank crashes per the plan, and the pipeline
	// retries with seeded exponential backoff. The similarity graph, Stats,
	// and BytesOnWire-excluding-retries are bit-identical to a fault-free run
	// for any recoverable plan (TestChaosBitIdentical). Arming happens at the
	// cluster layer — mpi.RunLocal, which every in-process entry point
	// (BuildGraph, BuildIndex, QueryEngine.Query) launches through — not
	// inside Run.
	Faults *mpi.FaultPlan

	// CheckpointDir, when set, makes each rank write a checkpoint of its
	// merged wave state after every completed wave (atomic rename, last two
	// kept). An aborted run leaves a resumable set of per-rank files; see
	// Resume.
	CheckpointDir string
	// Resume restores the newest cluster-consistent checkpoint from
	// CheckpointDir before the wave sweep and skips the already-completed
	// waves. The resumed run's similarity graph is bitwise what the
	// uninterrupted run would have produced.
	Resume bool

	// MemBudget, when positive, bounds the per-rank live-bytes ledger, checked
	// at wave boundaries: a breach before the sweep fails with ErrMemBudget,
	// one inside it restarts the sweep at doubled Blocks (graceful degradation:
	// trade re-broadcast volume for peak memory). A run that succeeds reports
	// a split whose unbudgeted run peaks within the budget; the graph is
	// Blocks-oblivious, so degraded runs stay bit-identical. Zero disables it.
	MemBudget int64

	// BlockingExchange disables communication/computation overlap: the
	// sequence exchange completes before matrix formation (ablation for the
	// paper's "wait" optimization).
	BlockingExchange bool
	// NaiveTriangle disables the computation-to-data trick of Fig. 11:
	// only processes on or above the grid diagonal align pairs, leaving
	// √p(√p-1)/2 processes idle (the strawman the paper's scheme avoids).
	NaiveTriangle bool
}

// DefaultConfig mirrors the paper's main configuration: k=6, BLOSUM62 with
// gap open 11 / extend 1, x-drop 49, ANI >= 30%, coverage >= 70%.
// Threads defaults to 1 (serial) so virtual times stay comparable across
// machines; opt into intra-rank parallelism explicitly.
func DefaultConfig() Config {
	return Config{
		K:           6,
		Align:       AlignXDrop,
		Weight:      WeightANI,
		MinIdentity: 0.30,
		MinCoverage: 0.70,
		GapOpen:     11,
		GapExtend:   1,
		XDropValue:  49,
		Threads:     1,
	}
}

// SeedPos is one shared k-mer occurrence on a sequence pair, in the pair's
// frame: the k-mer starts at PosR in the first sequence and PosC in the
// second; Dist is the substitution distance (0 for exact matches).
type SeedPos struct {
	PosR, PosC int32
	Dist       int32
}

// Overlap is the nonzero type of the similarity candidate matrix B
// (paper Fig. 3): the count of shared k-mers plus up to two seed positions
// ordered by (Dist, PosR, PosC).
type Overlap struct {
	Count    int32
	NumSeeds int32
	Seeds    [2]SeedPos
}

// seedLess orders seeds by substitution distance, then position.
func seedLess(a, b SeedPos) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	if a.PosR != b.PosR {
		return a.PosR < b.PosR
	}
	return a.PosC < b.PosC
}

// MergeOverlap is the semiring addition for B: counts accumulate and the
// two best seeds (by distance, then position) are retained. Every Overlap
// in the system keeps its seeds in seedLess order (Multiply emits one
// seed, this function preserves the order), so the best two are a two-way
// merge of two sorted lists — no slice, no sort.Slice: this runs once per
// accumulated nonzero inside the SpGEMM hot loop.
// TestMergeOverlapMatchesSort holds it bit-identical to a
// concatenate-sort-dedup reference in merge_test.go.
func MergeOverlap(x, y Overlap) Overlap {
	out := Overlap{Count: x.Count + y.Count}
	var i, j int32
	for out.NumSeeds < 2 && (i < x.NumSeeds || j < y.NumSeeds) {
		var s SeedPos
		switch {
		case i >= x.NumSeeds:
			s = y.Seeds[j]
			j++
		case j >= y.NumSeeds:
			s = x.Seeds[i]
			i++
		case seedLess(y.Seeds[j], x.Seeds[i]):
			s = y.Seeds[j]
			j++
		default:
			s = x.Seeds[i]
			i++
		}
		if out.NumSeeds > 0 && out.Seeds[out.NumSeeds-1] == s {
			continue // duplicate seed
		}
		out.Seeds[out.NumSeeds] = s
		out.NumSeeds++
	}
	return out
}

// PosDist is the nonzero type of AS: the position of the closest original
// k-mer of the row sequence that maps to this substitute k-mer, with its
// substitution distance (paper Section IV-C).
type PosDist struct {
	Pos  int32
	Dist int32
}

// closerKmer is the addition of AS = A·S (paper Section IV-C): of several
// k-mers of a sequence that share a substitute k-mer, the closest, then the
// leftmost, is kept. expandAS is the multiplication.
func closerKmer(x, y PosDist) PosDist {
	if y.Dist < x.Dist || (y.Dist == x.Dist && y.Pos < x.Pos) {
		return y
	}
	return x
}

// frame is the one place a candidate pair's orientation is decided: which of
// its two sequences a seed's PosR lies on, hence which is aligned first. A
// symmetric (all-vs-all) sweep puts the lower global index first, whichever
// grid block forms, transposes, merges or aligns the pair; a rectangular
// (query) sweep puts the query first. The overlap semirings swap the two
// positions as the seed is born, so every Overlap is in its pair's frame
// before MergeOverlap drops a seed: the retained seeds are a function of the
// unordered pair and the graph does not depend on the rank count
// (TestSeedsFrameFree, TestProcessCountOblivious).
//
// A rank knows its frame from its grid position: block rows and columns are
// cut by the same ascending BlockRange, so below the grid diagonal every row
// index exceeds every column index, above it none does, and on it block-local
// order is global order — the (i, j) a Semiring.Multiply receives suffices.
type frame int8

const (
	frameRect  frame = iota // rectangular sweep: (query, target) as formed
	frameAbove              // symmetric, above the grid diagonal: row < column as formed
	frameDiag               // symmetric, on the diagonal: mirrored where i > j
	frameBelow              // symmetric, below the diagonal: always mirrored
)

// symmetricFrame is the frame of an all-vs-all sweep on this rank.
func symmetricFrame(g *dmat.Grid) frame {
	switch {
	case g.MyRow < g.MyCol:
		return frameAbove
	case g.MyRow == g.MyCol:
		return frameDiag
	}
	return frameBelow
}

// mirrored reports whether block-local entry (i, j) has the higher global
// index on its row.
func (f frame) mirrored(i, j spmat.Index) bool {
	return f == frameBelow || (f == frameDiag && i > j)
}

// seed is the contribution of one shared k-mer to entry (i, j): at pos on the
// row sequence and posC on the column sequence, stored in the pair's frame.
func (f frame) seed(i, j spmat.Index, pos, posC, dist int32) Overlap {
	if f.mirrored(i, j) {
		pos, posC = posC, pos
	}
	return Overlap{Count: 1, NumSeeds: 1, Seeds: [2]SeedPos{{PosR: pos, PosC: posC, Dist: dist}}}
}

// exact is the semiring of B = A·Aᵀ for exact k-mer matching (paper Fig. 4):
// multiplication pairs the k-mer positions on the two sequences, addition
// merges counts and keeps the best two seeds.
func (f frame) exact() spmat.Semiring[int32, int32, Overlap] {
	return spmat.Semiring[int32, int32, Overlap]{
		Multiply: func(i, j spmat.Index, pos, posC int32) Overlap { return f.seed(i, j, pos, posC, 0) },
		Add:      MergeOverlap,
	}
}

// subRows is the semiring of B = (AS)·Aᵀ: like exact, but the row position
// carries its substitution distance into the seed.
func (f frame) subRows() spmat.Semiring[PosDist, int32, Overlap] {
	return spmat.Semiring[PosDist, int32, Overlap]{
		Multiply: func(i, j spmat.Index, pd PosDist, posC int32) Overlap { return f.seed(i, j, pd.Pos, posC, pd.Dist) },
		Add:      MergeOverlap,
	}
}

// subCols is the semiring of Bᵀ = A·(AS)ᵀ, the symmetrization contribution
// of a sweep that cannot transpose B. Entry (i, j) accumulates exactly the
// contributions of B[j, i], each in the frame of the pair {i, j}, so the
// panel merges into B's with MergeOverlap as it is.
func (f frame) subCols() spmat.Semiring[int32, PosDist, Overlap] {
	return spmat.Semiring[int32, PosDist, Overlap]{
		Multiply: func(i, j spmat.Index, pos int32, pd PosDist) Overlap { return f.seed(i, j, pos, pd.Pos, pd.Dist) },
		Add:      MergeOverlap,
	}
}

// ExactSemiring is the as-formed instance of frame.exact: PosR on the row
// sequence of every entry, for products outside a sweep.
var ExactSemiring = frameRect.exact()

// OverlapCodec serializes Overlap values for block transfers.
var OverlapCodec = dmat.Codec[Overlap]{
	Append: func(dst []byte, v Overlap) []byte {
		dst = wire.AppendU32(dst, uint32(v.Count))
		dst = wire.AppendU32(dst, uint32(v.NumSeeds))
		for _, s := range v.Seeds {
			dst = wire.AppendU32(dst, uint32(s.PosR))
			dst = wire.AppendU32(dst, uint32(s.PosC))
			dst = wire.AppendU32(dst, uint32(s.Dist))
		}
		return dst
	},
	Decode: func(src []byte) (Overlap, int) {
		var v Overlap
		v.Count = int32(wire.U32(src))
		v.NumSeeds = int32(wire.U32(src[4:]))
		off := 8
		for i := range v.Seeds {
			v.Seeds[i] = SeedPos{
				PosR: int32(wire.U32(src[off:])),
				PosC: int32(wire.U32(src[off+4:])),
				Dist: int32(wire.U32(src[off+8:])),
			}
			off += 12
		}
		return v, off
	},
	Width: 32, // Count + NumSeeds + 2 seeds of 3 int32s
}

// PosDistCodec serializes AS values.
var PosDistCodec = dmat.Codec[PosDist]{
	Append: func(dst []byte, v PosDist) []byte {
		return wire.AppendU32(wire.AppendU32(dst, uint32(v.Pos)), uint32(v.Dist))
	},
	Decode: func(src []byte) (PosDist, int) {
		return PosDist{Pos: int32(wire.U32(src)), Dist: int32(wire.U32(src[4:]))}, 8
	},
	Width: 8,
}

// Edge is one similarity-graph edge; R < C always (each unordered pair is
// produced by exactly one process).
type Edge struct {
	R, C   spmat.Index
	Weight float64
	Ident  float64
	Cov    float64
	NS     float64
	Score  int
}

// Stats aggregates pipeline counters across all ranks (paper Section VI
// quotes several of these: alignment counts, nonzeros, dimensions).
type Stats struct {
	NumSeqs      int64
	KmersTotal   int64 // k-mer occurrences extracted
	NNZA         int64
	NNZAFiltered int64 // after the k-mer frequency pre-filter
	NNZAS        int64
	NNZB         int64 // before the common-k-mer prune
	NNZBPruned   int64 // after it
	PairsAligned int64 // alignments performed (upper-triangle pairs)
	// CellsComputed is the total DP cells the alignment kernel evaluated —
	// the per-kernel cost measure the virtual clock charges, reported by
	// the kernels themselves (align.Kernel.CellsComputed) so sparse kernels
	// like wfa are billed their sparse cost.
	CellsComputed int64
	EdgesKept     int64 // pairs surviving the similarity filter

	// PairsPerStage and CellsPerStage break the alignment work down by
	// cascade stage when Config.Align names a staged cascade ("ug+wfa");
	// both are nil for primitive kernels and AlignNone. The slices are
	// parallel — PairsPerStage[i] and CellsPerStage[i] describe stage i —
	// and CellsPerStage sums to CellsComputed. Like every other Stats
	// counter they are global (reduced across ranks, identical everywhere).
	PairsPerStage []StagePairs
	CellsPerStage []int64
}

// StagePairs is the pair accounting of one cascade stage: of the Examined
// pairs the stage aligned, Passed cleared its gate (and were re-aligned —
// rescued — by the next stage, whose Examined therefore equals this
// stage's Passed) and Rejected were dismissed with no edge. The final
// stage has no gate: all its pairs count as Passed and Rejected is 0 (the
// similarity filter, not the cascade, judges them).
type StagePairs struct {
	Name     string // stage kernel name (ug, sw, xd, wfa)
	Examined int64
	Passed   int64
	Rejected int64
}

// Result is the outcome of one pipeline run on one rank.
type Result struct {
	Edges []Edge // this rank's share of the similarity graph
	Stats Stats  // global counters (identical on every rank)
	// EffectiveBlocks is the wave count the overlap sweep actually ran at:
	// Config.Blocks unless the memory-budget ladder degraded to a finer
	// split (or a resumed checkpoint pinned the sweep's split). Deliberately
	// not part of Stats, which stays bit-identical across Blocks values.
	EffectiveBlocks int
}
