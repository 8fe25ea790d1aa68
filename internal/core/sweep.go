package core

import (
	"errors"
	"fmt"

	"repro/internal/align"
	"repro/internal/dmat"
	"repro/internal/mpi"
)

// ErrMemBudget fails a run whose live-bytes ledger cannot be held to
// Config.MemBudget: the stages before the sweep already exceeded it, or the
// degradation ladder ran out of rungs.
var ErrMemBudget = errors.New("core: memory budget exceeded")

// maxDegradeBlocks caps the graceful-degradation ladder: a sweep that still
// breaches Config.MemBudget at this split cannot be saved by finer panels
// (the resident operands, not the panel transients, dominate) and fails with
// the budget error instead of doubling forever.
const maxDegradeBlocks = 4096

// checkBudget holds the live-bytes ledger to budget (Config.MemBudget): it
// allreduces (max) every rank's high-water mark since the previous check and
// fails with ErrMemBudget on a breach, on every rank alike. A zero budget
// issues no collective.
func checkBudget(comm *mpi.Comm, budget int64) error {
	if budget <= 0 {
		return nil
	}
	peak, err := comm.TryAllreduceInt64("max", comm.Clock().PeakSinceMark())
	if err != nil {
		return err
	}
	if peak > budget {
		return fmt.Errorf("%w: %d live bytes (budget %d)", ErrMemBudget, peak, budget)
	}
	return nil
}

// operands are the distributed matrices one sweep multiplies: a row side —
// A and AS for all-vs-all, the batch panel Q and QS for a query, rowsS being
// expandAS(rows) either way — against the column side Aᵀ and (AS)ᵀ of the
// target. rowsS and ast are nil in exact mode. Only the symmetric sweep may leave ast nil with
// rowsS set: a single wave then takes the transpose-based symmetrization,
// and a multi-wave split transposes rowsS itself (a rectangular panel has no
// transpose to symmetrize with, so a query always brings (AS)ᵀ).
type operands struct {
	rows  *dmat.Mat[int32]
	rowsS *dmat.Mat[PosDist]
	at    *dmat.Mat[int32]
	ast   *dmat.Mat[PosDist]
}

// release frees every operand once the wave loop has consumed all panels.
func (o *operands) release() {
	o.rows.Release()
	o.at.Release()
	if o.rowsS != nil {
		o.rowsS.Release()
	}
	if o.ast != nil {
		o.ast.Release()
	}
}

// panels streams the candidate matrix B = rows·Aᵀ (exact) or the
// symmetrization-ready pair for B = rowsS·Aᵀ (substitute) in `blocks` column
// panels, invoking yield as each panel's SUMMA stages complete. yield
// receives the panel plus, on the dual-product path, the matching column
// panel of Bᵀ, both with their seeds in the pair frame f (types.go). Every
// panel is bit-identical to the corresponding column slice of the monolithic
// computation.
//
// startPanel skips the panels a resumed run already merged from checkpoint
// (0 for a fresh sweep): the sweep runs panels [startPanel, blocks).
//
// Cost shape: each wave re-broadcasts the row operand's block columns (the
// follow-up paper's memory-for-broadcast trade). The symmetric single-wave
// substitute plan (ast == nil) keeps the SC20 transpose-based
// symmetrization, which is cheaper than the dual product when the whole
// matrix is resident anyway; every other substitute sweep computes the Bᵀ
// panels directly as rows·(AS)ᵀ, because a column panel of Bᵀ is not a slice
// of B's column panels.
func (o *operands) panels(f frame, gemmOpts dmat.SpGEMMOpts, blocks, startPanel int,
	yield func(panel int, bp, btp *dmat.Mat[Overlap]) error) error {

	clock := o.rows.Grid.Comm.Clock()
	if startPanel >= blocks {
		return nil // resumed past the final wave: nothing left to compute
	}
	if o.rowsS != nil && o.ast == nil {
		// Single wave: monolithic product plus the SC20 transpose-based
		// symmetrization B ⊕ Bᵀ; B[j,i] is already in the frame of B[i,j].
		var b *dmat.Mat[Overlap]
		var err error
		clock.Section(SectionB, func() {
			b, err = dmat.SpGEMM(o.rowsS, o.at, f.subRows(), OverlapCodec, gemmOpts)
		})
		if err != nil {
			return err
		}
		var sym *dmat.Mat[Overlap]
		clock.Section(SectionSym, func() {
			var bt *dmat.Mat[Overlap]
			if bt, err = b.Transpose(); err != nil {
				b.Release()
				return
			}
			sym, err = dmat.EWiseAdd(b, bt, MergeOverlap)
			bt.Release()
			b.Release()
		})
		if err != nil {
			return err
		}
		return yield(0, sym, nil)
	}

	for k := startPanel; k < blocks; k++ {
		// The sections close across yields so pipeline bookkeeping
		// (collecting the previous wave, launching this one) is not billed
		// as SpGEMM time.
		var bp, btp *dmat.Mat[Overlap]
		var err error
		clock.Section(SectionB, func() {
			if o.rowsS == nil {
				bp, err = dmat.SpGEMMPanel(o.rows, o.at, f.exact(), OverlapCodec, gemmOpts, blocks, k)
			} else {
				bp, err = dmat.SpGEMMPanel(o.rowsS, o.at, f.subRows(), OverlapCodec, gemmOpts, blocks, k)
			}
		})
		if err != nil {
			return err
		}
		if o.rowsS != nil {
			// The transpose contribution is symmetrization work (Fig. 15
			// "sym."). ast's blocks have the same local widths as at's, so
			// panel k of rows·(AS)ᵀ covers exactly bp's local columns.
			clock.Section(SectionSym, func() {
				btp, err = dmat.SpGEMMPanel(o.rows, o.ast, f.subCols(), OverlapCodec, gemmOpts, blocks, k)
			})
			if err != nil {
				return err
			}
		}
		if err := yield(k, bp, btp); err != nil {
			return err
		}
	}
	return nil
}

// sweep is the one blocked-wave driver: it streams ops through the wave
// pipeline, aligns the surviving candidates, and reduces the counters into
// stats so every rank reports identical numbers. It consumes ops. src
// resolves panel indices to sequences; its exchange is completed right
// before the first alignment needs it. f is this rank's pair frame:
// symmetricFrame for the Q = DB panel of all-vs-all (upper-triangle
// assignment, lower index first), frameRect for a query batch (every nonzero,
// query first). ckpt, when non-nil, checkpoints every collected wave and
// carries the state to resume from.
//
// The degradation ladder: with Config.MemBudget set, the ledger's high-water
// mark is checked (checkBudget) before the first panel, after every wave and
// after the drain, so no charge escapes it. A breach before the first panel
// fails at once: no split shrinks what was built before the sweep. A breach
// inside the sweep abandons the attempt, which restarts from panel 0 at
// double the block count — smaller panels, smaller transients — until it
// fits or the ladder caps out. A run that succeeds thus reports a split
// whose unbudgeted run peaks within the budget.
func sweep(r *run, ops *operands, src seqSource, f frame, ckpt *checkpointer, stats Stats) (*Result, error) {

	blocks, startPanel := r.blocks, 0
	var resume *checkpointState
	if ckpt != nil && ckpt.resume != nil {
		// Wave indices are only meaningful at the split that produced them.
		resume = ckpt.resume
		blocks, startPanel = resume.Blocks, resume.Wave+1
	}
	if err := checkBudget(r.comm, r.cfg.MemBudget); err != nil {
		return nil, fmt.Errorf("before the sweep: %w", err)
	}
	var w *wave
	for {
		if ops.rowsS != nil && ops.ast == nil && blocks > 1 {
			// A multi-wave all-vs-all split — configured, resumed from a
			// checkpoint, or the first rung of the ladder out of a
			// single-wave plan: the dual product needs (AS)ᵀ, which the
			// monolithic sweep never does. Built once; later rungs reuse it.
			var err error
			if ops.ast, err = transposeAS(r.clock, ops.rowsS); err != nil {
				return nil, err
			}
		}
		w = newWave(r.grid, src, f, r.cfg, blocks, ckpt)
		if resume != nil {
			w.restore(resume)
			resume = nil // only the first attempt resumes; retries start over
		}
		err := ops.panels(f, r.gemm, blocks, startPanel, w.yield)
		if err == nil {
			err = w.drain()
		}
		if err == nil {
			break
		}
		// Join the in-flight wave: its work is purely local and still
		// completes, and collecting it lands its checkpoint on disk.
		w.abortDrain()
		if !errors.Is(err, ErrMemBudget) || blocks >= maxDegradeBlocks {
			return nil, err
		}
		// Drop the partial sweep: wave indices are meaningless at the new
		// split, so its checkpoints go too. Everything up to here — the
		// wasted panels included — stays on the clock and the ledger;
		// degradation costs time, never correctness. The next attempt's
		// budget window opens here.
		if ckpt != nil {
			clearCheckpoints(ckpt.dir, r.comm.Rank())
		}
		r.clock.PeakSinceMark()
		blocks *= 2
		startPanel = 0
	}
	ops.release()
	if ckpt != nil {
		clearCheckpoints(ckpt.dir, r.comm.Rank())
	}
	if err := w.reduceStats(r.comm, &stats); err != nil {
		return nil, err
	}
	return &Result{Edges: w.edges, Stats: stats, EffectiveBlocks: blocks}, nil
}

// reduceStats sums the wave driver's rank-local tallies (and the caller's
// rank-local KmersTotal) across ranks into stats.
func (w *wave) reduceStats(comm *mpi.Comm, stats *Stats) error {
	var err error
	sum := func(dst *int64, local int64) {
		if err == nil {
			*dst, err = comm.TryAllreduceInt64("sum", local)
		}
	}
	sum(&stats.NNZB, w.nnzB)
	sum(&stats.NNZBPruned, w.nnzPruned)
	sum(&stats.CellsComputed, w.cells)
	if err == nil {
		err = reduceStageStats(comm, w.cfg, w.stages, stats)
	}
	sum(&stats.KmersTotal, stats.KmersTotal)
	sum(&stats.PairsAligned, w.aligned)
	sum(&stats.EdgesKept, int64(len(w.edges)))
	return err
}

// reduceStageStats fills Stats.PairsPerStage/CellsPerStage with the
// cluster-wide per-stage breakdown of a cascade run (no-op for primitive
// kernels and AlignNone). The stage template — names and count — is derived
// from cfg alone so every rank issues the same Allreduce sequence even when
// some ranks aligned no pairs at all (their local tallies are empty).
func reduceStageStats(comm *mpi.Comm, cfg Config, local []align.StageStats, stats *Stats) error {
	if cfg.Align == AlignNone {
		return nil
	}
	factory, err := align.KernelFactory(string(cfg.Align))
	if err != nil {
		return nil // unreachable after validate; stage stats are best-effort
	}
	cascade, ok := factory().(*align.Cascade)
	if !ok {
		return nil
	}
	template := cascade.StageStats() // fresh instance: zero counters, names set
	stats.PairsPerStage = make([]StagePairs, len(template))
	stats.CellsPerStage = make([]int64, len(template))
	for i, st := range template {
		var examined, passed, cells int64
		if i < len(local) {
			examined, passed, cells = local[i].Examined, local[i].Passed, local[i].Cells
		}
		sp := StagePairs{Name: st.Name}
		if sp.Examined, err = comm.TryAllreduceInt64("sum", examined); err != nil {
			return err
		}
		if sp.Passed, err = comm.TryAllreduceInt64("sum", passed); err != nil {
			return err
		}
		sp.Rejected = sp.Examined - sp.Passed
		stats.PairsPerStage[i] = sp
		if stats.CellsPerStage[i], err = comm.TryAllreduceInt64("sum", cells); err != nil {
			return err
		}
	}
	return nil
}
