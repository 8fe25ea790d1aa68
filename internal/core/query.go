package core

import (
	"fmt"

	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/seqstore"
	"repro/internal/spmat"
)

// Query answers one batch of queries against a loaded index: the batch
// forms a narrow panel Q (query rows × k-mer space), is pruned by the
// database's banned-k-mer list, expanded to QS by the expandAS that formed the
// database's AS, and swept against the resident Aᵀ/(AS)ᵀ blocks by the same
// blocked-wave driver as the all-vs-all pipeline, in its rectangular mode.
// Edges come out query-first: R is the query's index in the batch, C the
// database target.
//
// Collective; queries is this rank's share of the batch (any split works —
// globals come from the prefix sum). coldBytes is the artifact size to
// charge to the virtual IO clock when the resident blocks were read from
// disk for this run, 0 on warm calls where they were already in memory.
// The output is bit-identical for every Threads × Blocks × transport
// combination, and — restricted to the query rows — to the all-vs-all
// pipeline over the same data. Config.CheckpointDir is ignored: a batch is
// cheap to re-run, and the checkpoint identity does not cover its content.
func Query(comm *mpi.Comm, rd *RankData, queries []fasta.Record, cfg Config, coldBytes int64) (*Result, error) {
	if cfg.SubstituteKmers != rd.Subs {
		return nil, fmt.Errorf("core: index built with %d substitute k-mers, queried with %d", rd.Subs, cfg.SubstituteKmers)
	}
	if cfg.MaxKmerFrequency != rd.MaxFreq {
		return nil, fmt.Errorf("core: index built with frequency limit %d, queried with %d", rd.MaxFreq, cfg.MaxKmerFrequency)
	}
	r, err := openRun(comm, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	clock, grid := r.clock, r.grid
	var stats Stats

	// Cold runs pay for reading the artifact; warm runs skip it — that gap
	// is the amortization this path exists for.
	if coldBytes > 0 {
		clock.Section(SectionFasta, func() { clock.IOBytes(coldBytes) })
	}

	// Target store: relaunch the row/column prefetch over the persisted
	// partition (the sequences are resident; only ownership metadata and the
	// cross-rank prefetch are rebuilt, overlapping the matrix stages below).
	var tstore *seqstore.Store
	clock.StartSection(SectionFasta)
	tstore, err = seqstore.FromOwned(grid, rd.Owned)
	clock.EndSection()
	if err != nil {
		return nil, err
	}
	if tstore.Total != rd.Total {
		return nil, fmt.Errorf("core: index partition drifted: %d sequences exchanged, artifact says %d",
			tstore.Total, rd.Total)
	}

	// Query store: the standard input stage (parse charge + overlapped
	// exchange) over the batch's own global space 0..nq.
	qstore, err := stageInput(grid, queries, cfg)
	if err != nil {
		return nil, err
	}
	stats.NumSeqs = int64(qstore.Total)

	// Per-run matrix views over the resident blocks. The sweep releases the
	// wrappers; the underlying blocks live on in rd.
	ops := &operands{}
	if ops.at, err = dmat.NewFromLocal(grid, r.kmerSpace, rd.Total, rd.AT, dmat.Int32Codec); err != nil {
		return nil, err
	}
	if rd.AST != nil {
		if ops.ast, err = dmat.NewFromLocal(grid, r.kmerSpace, rd.Total, rd.AST, PosDistCodec); err != nil {
			return nil, err
		}
	}

	// --- form Q: |batch| × |k-mer space|, exactly formA over the batch ---
	clock.StartSection(SectionFormA)
	ops.rows, err = formA(grid, qstore, cfg, r.kmerSpace, &stats)
	clock.EndSection()
	if err != nil {
		return nil, err
	}
	if stats.NNZA, err = ops.rows.TryNNZ(); err != nil {
		return nil, err
	}

	// --- the database's frequency pre-filter, replayed from the artifact ---
	// The banned list was computed from the database's global k-mer counts
	// at build time; applying it to Q reproduces exactly the filter the
	// all-vs-all pipeline would have applied to these rows.
	stats.NNZAFiltered = stats.NNZA
	if cfg.MaxKmerFrequency > 0 {
		clock.Section(SectionFormA, func() {
			pruned := ops.rows.Prune(func(r, c spmat.Index, v int32) bool {
				_, bad := rd.Banned[c]
				return !bad
			})
			ops.rows.Release()
			ops.rows = pruned
		})
		if stats.NNZAFiltered, err = ops.rows.TryNNZ(); err != nil {
			return nil, err
		}
	}

	// --- QS = Q·S: the build's substitute expansion, on the query panel ---
	if rd.Subs > 0 {
		if ops.rowsS, err = expandAS(r, ops.rows); err != nil {
			return nil, err
		}
		if stats.NNZAS, err = ops.rowsS.TryNNZ(); err != nil {
			return nil, err
		}
	}

	// --- blocked-wave sweep: Q·Aᵀ (exact) or the dual product QS·Aᵀ ⊕
	// Q·(AS)ᵀ, which a rectangular panel runs every wave — even a single one —
	// because it has no transpose to symmetrize with. Both products build
	// their seeds in the (query, target) frame and the align stage merges them.
	return sweep(r, ops, pairSeqs{rows: qstore, cols: tstore}, frameRect, nil, stats)
}
