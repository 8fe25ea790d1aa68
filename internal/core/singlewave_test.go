package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// singleWaveTwin is the single-wave substitute plan as it was while a sweep
// symmetrized in two places, kept verbatim: the monolithic product, then B ⊕
// Bᵀ merged on the main lane under "sym.", and the merged panel handed to
// the wave with the Fig. 11 rule as its cut. spmat.MergeAdd stands in for
// the distributed elementwise add it called, charging what that charged:
// BuildOps per merged nonzero on the clock, the merged block on the ledger.
type singleWaveTwin struct{ *operands }

func (o singleWaveTwin) panels(blocks, startPanel int, yield func(k int, p panel) error) error {
	if o.as == nil || o.ast != nil || blocks != 1 || startPanel != 0 {
		return fmt.Errorf("singleWaveTwin: not a single-wave substitute plan")
	}
	r, f := o.r, o.f
	clock, naive := r.clock, r.cfg.NaiveTriangle
	// Single wave: monolithic product plus the SC20 transpose-based
	// symmetrization B ⊕ Bᵀ; B[j,i] is already in the frame of B[i,j].
	var b *dmat.Mat[Overlap]
	var err error
	clock.Section(SectionB, func() {
		b, err = dmat.SpGEMM(o.as, o.at, f.subRows(), OverlapCodec, r.gemm)
	})
	if err != nil {
		return err
	}
	p := panel{rowOff: b.RowOffset(), colOff: b.ColOffset(), cut: f.rowMax(naive)}
	clock.Section(SectionSym, func() {
		var bt *dmat.Mat[Overlap]
		if bt, err = b.Transpose(); err != nil {
			b.Release()
			return
		}
		if p.b, err = spmat.MergeAdd([]*spmat.DCSC[Overlap]{b.Local, bt.Local}, MergeOverlap); err == nil {
			clock.Ops(float64(p.b.NNZ()) * dmat.BuildOps)
			clock.AllocBytes(p.b.Bytes())
		}
		bt.Release()
		b.Release()
	})
	if err != nil {
		return err
	}
	return yield(0, p)
}

// sweepRun is one all-vs-all run read out whole: the gathered graph, the
// counters and the cluster's Summary.
type sweepRun struct {
	edges []Edge
	stats Stats
	sum   mpi.Summary
}

// runSweep runs the all-vs-all pipeline on p ranks with the sweep fed by
// wrap(ops) instead of the operands themselves.
func runSweep(t *testing.T, recs []fasta.Record, p int, cfg Config, wrap func(*operands) panelSource) sweepRun {
	t.Helper()
	var out sweepRun
	cl := mpi.NewCluster(p, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		r, err := openRun(c, cfg)
		if err != nil {
			return err
		}
		defer r.close()
		n := len(recs)
		tg, err := buildTarget(r, recs[n*c.Rank()/p:n*(c.Rank()+1)/p], false)
		if err != nil {
			return err
		}
		ops := &operands{r: r, f: symmetricFrame(r.grid), a: tg.a, as: tg.as, at: tg.at, ast: tg.ast}
		res, err := sweep(r, wrap(ops), tg.store, ops.f, nil, tg.stats)
		if err != nil {
			return err
		}
		all, err := GatherEdges(c, res.Edges)
		if c.Rank() == 0 {
			out.edges, out.stats = all, res.Stats
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out.sum, _ = cl.Summary()
	return out
}

// TestSingleWaveMatchesTwin holds the single-wave substitute plan, now panel
// 0 of 1 whose Bᵀ half the wave merges, to the plan that merged on the main
// lane: the same graph, counters, virtual time, wire bytes and peak bytes,
// bit for bit, and the same time in every section but "sym." and "wait" —
// the merge moved from the one to the other.
func TestSingleWaveMatchesTwin(t *testing.T) {
	// The one-family input's 42,000 candidate pairs go unaligned: its B,
	// not its graph, is what the wave's ledger must carry as before.
	inputs := []struct {
		name  string
		recs  []fasta.Record
		align AlignMode
	}{{"wavy", wavyDataset(t).Records, AlignXDrop}, {"one-family", oneFamilyDataset(t).Records, AlignNone}}
	if testing.Short() {
		inputs = inputs[:1] // the one-family input is most of the test's time
	}
	moved := map[string]bool{SectionSym: true, SectionWait: true}
	sections := func(m map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for k, v := range m {
			if !moved[k] {
				out[k] = v
			}
		}
		return out
	}
	for _, in := range inputs {
		for _, subs := range []int{1, 5, 10} {
			for _, ck := range []int{0, 3} {
				for _, naive := range []bool{false, true} {
					for _, p := range []int{1, 4, 9} {
						cfg := DefaultConfig()
						cfg.SubstituteKmers, cfg.CommonKmerThreshold, cfg.NaiveTriangle = subs, ck, naive
						cfg.Blocks, cfg.Align = 1, in.align
						name := fmt.Sprintf("%s subs=%d ck=%d naive=%v p=%d", in.name, subs, ck, naive, p)
						twin := runSweep(t, in.recs, p, cfg, func(o *operands) panelSource { return singleWaveTwin{o} })
						got := runSweep(t, in.recs, p, cfg, func(o *operands) panelSource { return o })
						if !reflect.DeepEqual(got.edges, twin.edges) {
							t.Fatalf("%s: %d edges, twin %d, or they differ", name, len(got.edges), len(twin.edges))
						}
						if !statsEqual(got.stats, twin.stats) {
							t.Fatalf("%s: stats %+v, twin %+v", name, got.stats, twin.stats)
						}
						g, w := got.sum, twin.sum
						if g.Time != w.Time || g.BytesOnWire != w.BytesOnWire || g.PeakBytes != w.PeakBytes {
							t.Fatalf("%s: time %.17g wire %d peak %d, twin %.17g %d %d",
								name, g.Time, g.BytesOnWire, g.PeakBytes, w.Time, w.BytesOnWire, w.PeakBytes)
						}
						if !reflect.DeepEqual(sections(g.SectionMax), sections(w.SectionMax)) ||
							!reflect.DeepEqual(sections(g.SectionMean), sections(w.SectionMean)) {
							t.Fatalf("%s: sections %v / %v, twin %v / %v", name,
								g.SectionMax, g.SectionMean, w.SectionMax, w.SectionMean)
						}
					}
				}
			}
		}
	}
}
