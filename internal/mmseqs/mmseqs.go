// Package mmseqs is a from-scratch stand-in for MMseqs2 (Steinegger &
// Söding 2017), the paper's primary comparator (Section III, VI). It
// reproduces the algorithmic shape the paper describes and measures:
//
//   - an inverted k-mer index over target sequences;
//   - similar k-mers generated under a score threshold controlled by the
//     sensitivity parameter s (low s = few similar k-mers = fast, high s =
//     many = sensitive) — the analogue of PASTIS's fixed-size substitute
//     k-mer neighborhoods;
//   - a candidate pair is accepted only when two k-mer matches fall on the
//     same diagonal ("double k-mer" heuristic);
//   - an ungapped diagonal alignment, then a gapped (Smith-Waterman)
//     alignment when the ungapped score passes a threshold;
//   - a deliberately serial result-processing stage: the paper traced
//     MMseqs2's poor scaling to output handling concentrated on one process
//     ("MMseqs2 probably gathers alignment results ... using a single
//     process"), so the distributed runtime model reproduces exactly that.
package mmseqs

import (
	"context"
	"fmt"

	"repro/internal/align"
	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/scoring"
	"repro/internal/spmat"
	"repro/internal/subkmer"
)

// Config controls the search.
type Config struct {
	K           int
	Sensitivity float64 // the paper tests 1 (low), 5.7 (default), 7.5 (high)

	Weight      core.WeightMode
	MinIdentity float64
	MinCoverage float64

	GapOpen, GapExtend int
	// UngappedThreshold gates the gapped alignment stage.
	UngappedThreshold int
}

// DefaultConfig mirrors the paper's MMseqs2 settings (default sensitivity).
func DefaultConfig() Config {
	return Config{
		K: 6, Sensitivity: 5.7,
		Weight: core.WeightANI, MinIdentity: 0.30, MinCoverage: 0.70,
		GapOpen: 11, GapExtend: 1, UngappedThreshold: 15,
	}
}

// similarKmerBudget converts the sensitivity into the maximum substitution
// expense allowed when generating similar k-mers: s=1 admits only
// near-exact k-mers, s=7.5 admits a wide neighborhood.
func similarKmerBudget(s float64) int {
	if s < 0 {
		s = 0
	}
	return int(s * 2)
}

// maxNeighbors caps the per-k-mer neighborhood enumeration; it grows with
// sensitivity so the expense budget — not the cap — is never the only
// binding constraint at low s while high s keeps widening the neighborhood.
func maxNeighbors(s float64) int {
	n := int(12 * s)
	if n < 4 {
		n = 4
	}
	if n > 256 {
		n = 256
	}
	return n
}

// Stats counts the work performed (for the runtime model and the
// comparison harness).
type Stats struct {
	KmersIndexed   int64
	SimilarKmers   int64
	CandidatePairs int64
	Ungapped       int64
	Gapped         int64
	Edges          int64
}

// virtual-cost constants (generic ops charged to the rank clock).
const (
	opsPerIndexedKmer = 15
	opsPerLookup      = 6
	opsPerDPCell      = 4
	// opsPerResult models the serial result-processing stage on rank 0
	// (format, merge, write through one process) — the bottleneck the paper
	// traced MMseqs2's flat scaling to.
	opsPerResult = 20000
)

// Run performs the many-against-many search with rank-partitioned queries.
// Every rank indexes the full target set (MMseqs2's target-split mode has
// the same aggregate work; query-split keeps the candidate generation
// identical to the serial tool so results are process-count oblivious).
// Edges are gathered and post-processed on rank 0, which is the serial
// stage responsible for the flat scaling the paper observed.
func Run(comm *mpi.Comm, recs []fasta.Record, cfg Config) ([]core.Edge, Stats, error) {
	if cfg.K <= 0 || cfg.K > kmer.MaxK {
		return nil, Stats{}, fmt.Errorf("mmseqs: k=%d out of range", cfg.K)
	}
	clock := comm.Clock()
	var stats Stats

	// Encode all sequences (every rank holds the target set).
	seqs := make([][]alphabet.Code, len(recs))
	for i, r := range recs {
		codes, err := alphabet.EncodeSeq(alphabet.Clean(r.Seq))
		if err != nil {
			return nil, Stats{}, err
		}
		seqs[i] = codes
	}
	clock.IOBytes(fasta.TotalSeqBytes(recs))

	// Build the inverted index: k-mer id -> list of (seq, pos).
	type hit struct {
		seq int32
		pos int32
	}
	index := make(map[kmer.ID][]hit)
	for i, codes := range seqs {
		for _, km := range kmer.ExtractCodes(codes, cfg.K, true) {
			index[km.ID] = append(index[km.ID], hit{seq: int32(i), pos: int32(km.Pos)})
			stats.KmersIndexed++
		}
	}
	clock.Ops(float64(stats.KmersIndexed) * opsPerIndexedKmer)

	// Query partition for this rank.
	n := len(recs)
	qLo := n * comm.Rank() / comm.Size()
	qHi := n * (comm.Rank() + 1) / comm.Size()

	finder, err := subkmer.NewFinder(cfg.K, scoring.NewExpense(scoring.BLOSUM62), maxNeighbors(cfg.Sensitivity))
	if err != nil {
		return nil, Stats{}, err
	}
	var nbrs []subkmer.Neighbor
	budget := similarKmerBudget(cfg.Sensitivity)
	filter := core.SimilarityFilter{Weight: cfg.Weight, MinIdentity: cfg.MinIdentity, MinCoverage: cfg.MinCoverage}
	// The pipeline's kernels, one instance each for the whole query loop (so
	// their DP buffers are reused), billed by their own cell counts: ug is
	// the ungapped pass with x-drop 20, sw the gapped one.
	ug, err := align.NewKernel("ug")
	if err != nil {
		return nil, Stats{}, err
	}
	sw, err := align.NewKernel("sw")
	if err != nil {
		return nil, Stats{}, err
	}
	params := align.Params{
		Scoring: align.Scoring{Matrix: scoring.BLOSUM62, GapOpen: cfg.GapOpen, GapExtend: cfg.GapExtend},
		XDrop:   20,
	}
	seed := make([]align.Seed, 1)

	var edges []core.Edge
	// diagCount[(target<<20)|diag] -> matches on that diagonal, per query.
	type diagKey struct {
		target int32
		diag   int32
	}
	for q := qLo; q < qHi; q++ {
		qCodes := seqs[q]
		diag := make(map[diagKey][2]int32) // count and a seed position
		record := func(id kmer.ID, qPos int32) {
			for _, h := range index[id] {
				if int(h.seq) <= q {
					continue // many-vs-many: score each unordered pair once
				}
				stats.CandidatePairs++
				k := diagKey{target: h.seq, diag: qPos - h.pos}
				e := diag[k]
				e[0]++
				if e[0] == 1 {
					e[1] = qPos
				}
				diag[k] = e
			}
		}
		for _, km := range kmer.ExtractCodes(qCodes, cfg.K, true) {
			record(km.ID, int32(km.Pos))
			if budget > 0 {
				nbrs = finder.AppendFind(nbrs[:0], km.ID)
				for _, nb := range nbrs {
					if nb.Dist > budget {
						break // sorted by distance
					}
					stats.SimilarKmers++
					record(nb.ID, int32(km.Pos))
				}
			}
		}
		clock.Ops(float64(len(diag)) * opsPerLookup)

		// Double-k-mer trigger per (target, diagonal), then alignment.
		gapped := map[int32]bool{}
		for dk, e := range diag {
			if e[0] < 2 {
				continue
			}
			tCodes := seqs[dk.target]
			qPos := int(e[1])
			tPos := qPos - int(dk.diag)
			if tPos < 0 || tPos+cfg.K > len(tCodes) {
				continue
			}
			stats.Ungapped++
			seed[0] = align.Seed{PosA: qPos, PosB: tPos, K: cfg.K}
			res, err := ug.Align(qCodes, tCodes, seed, params)
			if err != nil {
				return nil, Stats{}, err
			}
			if res.Score >= cfg.UngappedThreshold {
				gapped[dk.target] = true
			}
		}
		for target := range gapped {
			stats.Gapped++
			res, err := sw.Align(qCodes, seqs[target], nil, params)
			if err != nil {
				return nil, Stats{}, err
			}
			if e, ok := filter.Edge(spmat.Index(q), spmat.Index(target), len(qCodes), len(seqs[target]), res); ok {
				edges = append(edges, e)
			}
		}
	}
	clock.Ops(float64(ug.CellsComputed()+sw.CellsComputed()) * opsPerDPCell)

	// The serial output stage: gather everything on rank 0 — GatherEdges
	// sorts, which also undoes the unordered map iteration above — and
	// charge its clock for processing the full result volume.
	all, err := core.GatherEdges(comm, edges)
	if err != nil {
		return nil, stats, err
	}
	if comm.Rank() == 0 {
		clock.Ops(float64(len(all)) * opsPerResult)
	}
	for _, v := range []*int64{&stats.KmersIndexed, &stats.SimilarKmers,
		&stats.CandidatePairs, &stats.Ungapped, &stats.Gapped} {
		if *v, err = comm.TryAllreduceInt64("sum", *v); err != nil {
			return nil, stats, err
		}
	}
	stats.KmersIndexed /= int64(comm.Size())
	stats.Edges = int64(len(all))
	return all, stats, nil
}

// RunCluster is Run on a simulated cluster of the given node count (any
// positive count; no grid requirement) under model: rank 0's gathered edges
// and the virtual makespan. The public wrapper and the experiments both run
// the baseline through it.
func RunCluster(recs []fasta.Record, nodes int, cfg Config, model mpi.CostModel) ([]core.Edge, float64, error) {
	edges, sum, err := mpi.RunLocal(context.Background(), nodes, model, nil, func(c *mpi.Comm) ([]core.Edge, error) {
		edges, _, err := Run(c, recs, cfg)
		return edges, err
	})
	if err != nil {
		return nil, 0, err
	}
	return edges, sum.Time, nil
}
