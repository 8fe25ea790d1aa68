package core

import (
	"repro/internal/align"
	"repro/internal/dmat"
	"repro/internal/mpi"
)

// wave drives the memory-bounded overlap/align pipeline: panel i's local
// work (symmetrization merge, prune, batched alignment) runs on a
// background goroutine — the rank's worker pool — while the main goroutine
// proceeds with panel i+1's SUMMA stages. The pipeline is depth one: the
// previous wave is collected before the next one launches, which both
// bounds real memory to about two live panels and keeps the virtual-time
// model simple.
//
// Virtual time: the driver never advances the clock for hidden work.
// Instead each collected wave extends a side "lane" — lane = max(lane,
// launch time) + wave duration — and only the part of the lane sticking out
// past the main clock at drain time is charged, under SectionWait (the rank
// really is waiting for its asynchronous work, exactly like the sequence
// exchange's wait). Alignment work itself is credited to SectionAlign via
// CreditSection whether it hid or not, so dissection plots keep showing the
// align component while the makespan shrinks as waves overlap — compute
// hidden under communication, SectionWait shrinking with the wave count.
type wave struct {
	grid  *dmat.Grid
	clock *mpi.Clock
	src   seqSource // sequence lookup for alignment (store, or query/target pair)
	frame frame     // the sweep's pair frame on this rank (types.go)
	cfg   Config

	pending *panelFuture
	edges   []Edge
	laneT   float64 // virtual completion time of the last collected wave

	// Local accumulators, reduced once after the drain.
	nnzB, nnzPruned, aligned, cells int64
	stages                          []align.StageStats // cascade kernels only

	// Checkpointing (ckpt != nil): every collected wave serializes the
	// merged accumulators above, so an aborted run can restart from the
	// newest wave all ranks completed.
	ckpt    *checkpointer
	blocks  int  // the sweep's panel count (recorded per checkpoint)
	started bool // first yield seen (sequence exchange drained)
}

// panelFuture is one in-flight wave.
type panelFuture struct {
	k     int // panel index
	p     panel
	start float64 // main-clock time at launch
	done  chan panelResult
}

func newWave(g *dmat.Grid, src seqSource, f frame, cfg Config, blocks int, ckpt *checkpointer) *wave {
	return &wave{grid: g, clock: g.Comm.Clock(), src: src, frame: f,
		cfg: cfg, blocks: blocks, ckpt: ckpt}
}

// restore seeds the driver with a checkpoint's merged state; the caller
// then runs the sweep from wave ck.Wave+1.
func (w *wave) restore(ck *checkpointState) {
	w.nnzB, w.nnzPruned = ck.NnzB, ck.NnzPruned
	w.aligned, w.cells = ck.Aligned, ck.Cells
	w.stages = ck.Stages
	w.edges = ck.Edges
}

// yield is the panelSource.panels callback: it completes the sequence
// exchange before the first wave needs sequence data, collects the previous
// wave, launches this panel's local work in the background, and checks the
// wave against the memory budget.
func (w *wave) yield(k int, p panel) error {
	if !w.started && !w.cfg.BlockingExchange {
		var err error
		w.clock.Section(SectionWait, func() { err = w.src.Wait() })
		if err != nil {
			return err
		}
	}
	w.started = true
	if err := w.collect(); err != nil {
		return err
	}
	f := &panelFuture{k: k, p: p, start: w.clock.Now(), done: make(chan panelResult, 1)}
	w.pending = f
	go func() { f.done <- processPanel(f.p, w.src, w.frame, w.cfg) }()
	return checkBudget(w.grid.Comm, w.cfg.MemBudget)
}

// collect blocks until the in-flight wave (if any) finishes, merges its
// output in wave order, charges its memory churn, and extends the lane.
func (w *wave) collect() error {
	f := w.pending
	if f == nil {
		return nil
	}
	w.pending = nil
	res := <-f.done
	if res.err != nil {
		return res.err
	}
	// The merged block replaced the panel's two halves; the prune's
	// transients lived alongside what was left. Bump the ledger to each
	// high-water mark in turn, then retire the whole wave.
	held := f.p.bytes()
	if res.merged > 0 {
		w.clock.AllocBytes(res.merged)
		w.clock.FreeBytes(held)
		held = res.merged
	}
	w.clock.AllocBytes(res.scratch)
	w.clock.FreeBytes(res.scratch + held)

	// The serial merge runs before the thread-parallel prune and alignment,
	// and the lane adds them in that order, so a single wave ends, to the
	// last bit, where a merge on the main lane would (singlewave_test.go).
	if f.start > w.laneT {
		w.laneT = f.start
	}
	w.laneT += w.clock.OpsDuration(res.serialOps)
	w.laneT += w.clock.ParOpsDuration(res.parOps)
	if w.cfg.Align != AlignNone {
		w.clock.CreditSection(SectionAlign, w.clock.ParOpsDuration(float64(res.cells)*opsPerDPCell))
		// Cascade runs additionally attribute each stage's share of the
		// align component to an "align:<stage>" sub-section, so dissection
		// ledgers show where the staged filter actually spends its time
		// (prefilter vs rescue). The parent SectionAlign credit above stays
		// the total — sub-sections accumulate independently, they are not
		// summed into their parent.
		for _, st := range res.stages {
			w.clock.CreditSection(mpi.SubSectionName(SectionAlign, st.Name),
				w.clock.ParOpsDuration(float64(st.Cells)*opsPerDPCell))
		}
	}

	w.edges = append(w.edges, res.edges...)
	w.nnzB += res.nnzB
	w.nnzPruned += res.nnzPruned
	w.aligned += res.aligned
	w.cells += res.cells
	w.stages = align.MergeStageStats(w.stages, res.stages)

	// Persist the merged state. The write is local (no collectives), so it
	// also succeeds during an abort drain, leaving a resumable file even
	// when the cluster is already failing.
	if w.ckpt != nil {
		comm := w.grid.Comm
		return writeCheckpoint(w.ckpt.dir, w.ckpt.fingerprint, comm.Rank(), comm.Size(),
			checkpointState{
				Wave: f.k, Blocks: w.blocks,
				NnzB: w.nnzB, NnzPruned: w.nnzPruned,
				Aligned: w.aligned, Cells: w.cells,
				Stages: w.stages, Edges: w.edges,
			})
	}
	return nil
}

// abortDrain is the failure-path collect: when a collective abort ends the
// sweep mid-wave, the in-flight panel's work is purely local and can still
// finish, and collecting it writes the final checkpoint. Errors are
// swallowed — the run is already failing for the original cause.
func (w *wave) abortDrain() {
	if w.pending != nil {
		_ = w.collect()
	}
}

// drain collects the final wave and reconciles the lane with the main
// clock: whatever local work did not hide under the later panels' SUMMA
// stages is exposed here as wait time. The final wave's scratch is checked
// against the memory budget.
func (w *wave) drain() error {
	if err := w.collect(); err != nil {
		return err
	}
	// The clock moves to the lane's end itself: now + (laneT − now) rounds
	// once the lane runs past twice now.
	if w.laneT > w.clock.Now() {
		w.clock.Section(SectionWait, func() { w.clock.Reach(w.laneT) })
	}
	return checkBudget(w.grid.Comm, w.cfg.MemBudget)
}
