package core

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/dmat"
	"repro/internal/parallel"
	"repro/internal/scoring"
	"repro/internal/seqstore"
	"repro/internal/spmat"
)

// Virtual-cost constants for the panel-local passes, shared with the dmat
// layer so the off-clock lane charges the same rates the main-lane ops
// would (dmat.BuildOps per merged nonzero, dmat.VisitOps per elementwise
// visit). The panel task runs off the rank's critical path, so it tallies
// work instead of touching the clock; the wave driver converts the tallies
// to lane seconds.
const (
	opsPerMergedNNZ = dmat.BuildOps
	opsPerVisitNNZ  = dmat.VisitOps
)

// seqSource resolves a panel nonzero's row and column indices to sequences,
// once Wait has completed the exchange that fetches them. The all-vs-all
// pipeline uses one Store for both sides; the query path pairs a query-batch
// store (rows) with the resident target store (columns).
type seqSource interface {
	Wait() error
	RowSeq(g spmat.Index) (seqstore.Sequence, error)
	ColSeq(g spmat.Index) (seqstore.Sequence, error)
}

// pairSeqs is the query-mode seqSource: panel rows index the query batch,
// panel columns index the database.
type pairSeqs struct {
	rows, cols *seqstore.Store
}

func (p pairSeqs) Wait() error {
	if err := p.rows.Wait(); err != nil {
		return err
	}
	return p.cols.Wait()
}
func (p pairSeqs) RowSeq(g spmat.Index) (seqstore.Sequence, error) { return p.rows.RowSeq(g) }
func (p pairSeqs) ColSeq(g spmat.Index) (seqstore.Sequence, error) { return p.cols.ColSeq(g) }

// panelResult is everything one wave's local work produces. err aborts the
// run; the tallies feed the wave driver's overlap lane and memory ledger.
type panelResult struct {
	edges     []Edge
	aligned   int64              // pairs aligned in this panel
	cells     int64              // DP cells computed
	stages    []align.StageStats // per-stage breakdown (cascade kernels only)
	nnzB      int64              // local nonzeros of the (symmetrized) panel
	nnzPruned int64              // after the common-k-mer prune
	serialOps float64
	parOps    float64
	scratch   int64 // transient bytes the task materialized
	err       error
}

// processPanel is the per-wave local stage: merge the transpose
// contribution (dual-product substitute path), apply the common-k-mer prune,
// and align the panel's candidate pairs on the worker pool. It runs on a
// background goroutine while the next panel's SUMMA stages proceed, so it
// must not touch the rank clock or any distributed state: inputs are
// read-only and all accounting is returned as tallies. Output is
// deterministic — chunks merge in order — so the edge list is bit-identical
// for any thread count and any wave count.
func processPanel(bp, btp *dmat.Mat[Overlap], src seqSource, f frame, cfg Config) panelResult {
	var res panelResult
	local := bp.Local
	if btp != nil {
		merged, err := spmat.EWiseAdd(local, btp.Local, MergeOverlap)
		if err != nil {
			res.err = err
			return res
		}
		res.serialOps += float64(merged.NNZ()) * opsPerMergedNNZ
		res.scratch += merged.Bytes()
		local = merged
	}
	res.nnzB = int64(local.NNZ())

	pruned := local
	if cfg.CommonKmerThreshold > 0 {
		t := int32(cfg.CommonKmerThreshold)
		pruned = local.Prune(func(r, c spmat.Index, v Overlap) bool { return v.Count > t })
		res.parOps += float64(local.NNZ()) * opsPerVisitNNZ
		res.scratch += pruned.Bytes()
	}
	res.nnzPruned = int64(pruned.NNZ())
	if cfg.Align == AlignNone {
		return res
	}

	edges, aligned, cells, stages, err := alignPanel(pruned, bp.RowOffset(), bp.ColOffset(), src, f, cfg)
	res.edges, res.aligned, res.cells, res.stages, res.err = edges, aligned, cells, stages, err
	res.parOps += float64(cells) * opsPerDPCell
	return res
}

// alignPanel aligns the candidate pairs of one panel assigned to this rank.
// A symmetric (all-vs-all) panel uses the computation-to-data scheme (paper
// Fig. 11): each block computes its own local upper triangle, block
// diagonals are taken by processes on or above the grid diagonal, and the
// union covers every global pair exactly once. Panels partition the local
// columns, so per-panel candidate lists concatenate — in panel order — to
// exactly the monolithic candidate list.
//
// Pairs are aligned in contiguous chunks drawn by a worker pool (the
// follow-up paper's hybrid design), four chunks per worker for balance: each
// worker reuses one alignment-kernel instance — hence one set of
// DP/wavefront buffers — across all its chunks, and per-chunk outputs merge
// in chunk order, so the edge list, counters and DP-cell count are
// bit-identical to a serial pass for any thread count.
//
// The chunk loop is kernel-oblivious: cfg.Align resolves a factory from the
// align package's registry, every pair dispatches through align.Kernel, and
// the cells charged to the virtual clock come from the kernels' own
// CellsComputed accounting (per-chunk deltas, summed in chunk order). When
// the kernel is a staged cascade, the per-stage pair/cell tallies of every
// worker instance are additionally summed into one per-stage breakdown for
// the panel (plain integer sums, so the result is thread-count oblivious).
func alignPanel(b *spmat.DCSC[Overlap], rowOff, colOff spmat.Index,
	src seqSource, f frame, cfg Config) ([]Edge, int64, int64, []align.StageStats, error) {

	kernelFor, err := align.KernelFactory(string(cfg.Align))
	if err != nil {
		return nil, 0, 0, nil, err
	}
	onOrAboveDiag := f != frameBelow

	// Ownership filtering is cheap and serial; it yields the candidate list
	// the batches are cut from. A many-vs-DB panel is rectangular — query
	// rows against database columns — so every nonzero is a distinct pair
	// owned by exactly one rank and no triangle or diagonal filtering applies
	// (row and column indices live in different spaces).
	var cands []spmat.Triple[Overlap]
	for _, t := range b.ToTriples() {
		lr, lc := t.Row, t.Col
		r, c := rowOff+lr, colOff+lc
		if f != frameRect { // rows and columns index the same sequences
			if r == c {
				continue // self pair
			}
			if cfg.NaiveTriangle {
				// Strawman assignment: the global upper triangle is handled
				// only by processes on or above the grid diagonal; the rest
				// of the grid idles (paper Section V-D).
				if !onOrAboveDiag || r > c {
					continue
				}
			} else if lr > lc || (lr == lc && !onOrAboveDiag) {
				continue // the mirrored block owns this pair
			}
		}
		cands = append(cands, t)
	}
	if len(cands) == 0 {
		return nil, 0, 0, nil, nil
	}

	threads := cfg.Threads
	if threads < 1 {
		threads = 1 // the documented contract: <= 1 runs serially
	}
	params := align.Params{
		Scoring: align.Scoring{Matrix: scoring.BLOSUM62, GapOpen: cfg.GapOpen, GapExtend: cfg.GapExtend},
		XDrop:   cfg.XDropValue,
	}
	// Per-worker reusable state: one kernel instance (DP/wavefront buffers)
	// and one seed scratch slice, so the per-pair loop does not allocate.
	type worker struct {
		kernel align.Kernel
		seeds  []align.Seed
	}
	workers := make([]worker, parallel.Workers(threads))
	// Per-chunk outputs, merged in chunk order after the pool drains.
	type chunkOut struct {
		edges   []Edge
		aligned int64
		cells   int64
		err     error
	}
	nchunks := len(workers) * 4 // oversubscribed for balance
	outs := make([]chunkOut, nchunks)
	parallel.ForChunks(threads, len(cands), nchunks, func(w, chunk, lo, hi int) {
		ws := &workers[w]
		if ws.kernel == nil {
			ws.kernel = kernelFor()
			ws.seeds = make([]align.Seed, 0, len(Overlap{}.Seeds))
		}
		out := &outs[chunk]
		startCells := ws.kernel.CellsComputed()
		for _, t := range cands[lo:hi] {
			edge, err := alignPair(ws.kernel, params, ws.seeds, t, rowOff, colOff, src, f, cfg)
			if err != nil {
				out.err = err
				break
			}
			out.aligned++
			if edge != nil {
				out.edges = append(out.edges, *edge)
			}
		}
		out.cells += ws.kernel.CellsComputed() - startCells
	})

	var edges []Edge
	var aligned, cells int64
	for i := range outs {
		if outs[i].err != nil {
			return nil, 0, 0, nil, outs[i].err
		}
		edges = append(edges, outs[i].edges...)
		aligned += outs[i].aligned
		cells += outs[i].cells
	}

	// Per-stage breakdown: sum the stage tallies of every worker's kernel
	// instance. Field-wise int64 sums commute, so the totals are identical
	// for any thread count.
	var stages []align.StageStats
	for i := range workers {
		if sk, ok := workers[i].kernel.(align.StagedKernel); ok {
			stages = align.MergeStageStats(stages, sk.StageStats())
		}
	}
	return edges, aligned, cells, stages, nil
}

// alignPair aligns one candidate pair on the given worker-local kernel and
// applies the similarity filter; edge is nil when the pair is filtered out.
// seedScratch is the worker's reusable seed slice (capacity >= the Overlap
// seed bound, so appending never allocates).
func alignPair(k align.Kernel, params align.Params, seedScratch []align.Seed,
	t spmat.Triple[Overlap], rowOff, colOff spmat.Index,
	src seqSource, f frame, cfg Config) (edge *Edge, err error) {

	r, c := rowOff+t.Row, colOff+t.Col
	seqR, err := src.RowSeq(r)
	if err != nil {
		return nil, err
	}
	seqC, err := src.ColSeq(c)
	if err != nil {
		return nil, err
	}
	// Align in the pair's frame, the one its seeds were born in (frame,
	// types.go): alignment tie-breaking is not guaranteed orientation-
	// symmetric on degenerate ties, and a mirrored block holds the pair with
	// the higher index on its row.
	if f.mirrored(t.Row, t.Col) {
		r, c, seqR, seqC = c, r, seqC, seqR
	}
	// Hand the kernel the overlap's seeds plus the pair's shared-k-mer
	// evidence; the kernel decides what it needs (cascades use the count as
	// a rescue override for off-diagonal seeds, primitive kernels ignore it).
	seeds := seedScratch[:0]
	ov := t.Val
	params.SharedKmers = int(ov.Count)
	for _, s := range ov.Seeds[:ov.NumSeeds] {
		seeds = append(seeds, align.Seed{PosA: int(s.PosR), PosB: int(s.PosC), K: cfg.K})
	}
	best, err := k.Align(seqR.Codes, seqC.Codes, seeds, params)
	if err != nil {
		return nil, fmt.Errorf("core: aligning sequences %d (%d residues) and %d (%d residues): %w",
			r, len(seqR.Codes), c, len(seqC.Codes), err)
	}
	filter := SimilarityFilter{Weight: cfg.Weight, MinIdentity: cfg.MinIdentity, MinCoverage: cfg.MinCoverage}
	if e, ok := filter.Edge(r, c, len(seqR.Codes), len(seqC.Codes), best); ok {
		return &e, nil
	}
	return nil, nil
}

// SimilarityFilter is the rule that turns an alignment into a
// similarity-graph edge (paper Sections IV-F and VI-B), shared by the
// pipeline and the MMseqs2 and LAST baselines so all three graphs are cut
// the same way.
type SimilarityFilter struct {
	Weight      WeightMode
	MinIdentity float64 // ANI mode only
	MinCoverage float64 // ANI mode only
}

// Edge returns the edge between sequences r and c, lenR and lenC residues
// long, that alignment res supports, or false when the filter drops the pair:
// ANI mode cuts on identity and coverage of the shorter sequence and weights
// by identity; NS mode keeps every positive score, weighted by it.
func (f SimilarityFilter) Edge(r, c spmat.Index, lenR, lenC int, res align.Result) (Edge, bool) {
	e := Edge{
		R: r, C: c, Score: res.Score,
		Ident: res.Identity(), Cov: res.CoverageShorter(lenR, lenC), NS: res.NormalizedScore(lenR, lenC),
	}
	switch f.Weight {
	case WeightANI:
		if e.Ident < f.MinIdentity || e.Cov < f.MinCoverage {
			return Edge{}, false
		}
		e.Weight = e.Ident
	case WeightNS:
		if res.Score <= 0 {
			return Edge{}, false
		}
		e.Weight = e.NS
	}
	return e, true
}
