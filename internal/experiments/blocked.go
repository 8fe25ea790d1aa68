package experiments

import (
	"fmt"

	"repro/internal/core"
)

// blockSweep is the wave counts the memory-bounded pipeline study sweeps.
var blockSweep = []int{1, 2, 4, 8}

// BlockedWaves measures the memory-vs-broadcast tradeoff of the blocked
// wave pipeline (extreme-scale follow-up paper, arXiv:2303.01845): on a
// fixed input and node count, growing Config.Blocks splits the candidate
// matrix into more column panels, shrinking the per-rank peak of live
// matrix bytes while re-broadcasting A once per wave and hiding each
// panel's alignment under the next panel's SUMMA stages. The similarity
// graph is bit-identical across the sweep (asserted here). Exact k-mer
// matching is used so the candidate matrix dominates memory, the paper's
// production regime; the substitute path adds constant-size AS/(AS)ᵀ
// operands that mask panel savings at laptop scale.
func BlockedWaves(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "blocked",
		Title:   "Memory-bounded waves: peak bytes vs block count (fixed input)",
		Columns: []string{"blocks", "nodes", "total_s", "spgemm_s", "align_s", "wait_s", "peak_bytes", "bytes_on_wire"},
		Notes: []string{
			"blocked pipeline (follow-up paper, arXiv:2303.01845): the candidate",
			"matrix streams through column panels; panel i's prune+align overlap",
			"panel i+1's SUMMA. Peak bytes fall as blocks grow; runtime stays",
			"within a few percent (extra A broadcasts vs alignment hidden under",
			"communication). The PSG is identical for every block count.",
			"dataset floored at 160 sequences: per-wave broadcast latency is",
			"fixed, so tinier inputs would measure latency, not the tradeoff",
		},
	}
	// Family-rich dataset (the weak-scaling generator), floored at 160
	// sequences: the tradeoff claim is about the production regime where the
	// quadratically-growing candidate matrix dominates both memory and
	// flops. On a near-singleton corpus — or a tinier one — the fixed
	// per-wave A broadcast would dwarf the work being blocked and the sweep
	// would measure latency instead.
	n := sc.DatasetA
	if n < 160 {
		n = 160
	}
	data, err := weakDataset(n, n/2, 101)
	if err != nil {
		return nil, err
	}
	const nodes = 16
	var refEdges []core.Edge
	for i, blocks := range blockSweep {
		cfg := core.DefaultConfig()
		cfg.CommonKmerThreshold = 1
		cfg.Threads = 8
		cfg.Blocks = blocks
		res, sum, err := runPastisModel(data.Records, nodes, cfg, scalingModel())
		if err != nil {
			return nil, fmt.Errorf("blocks=%d: %w", blocks, err)
		}
		if i == 0 {
			refEdges = res.Edges
		} else if !edgesEqual(refEdges, res.Edges) {
			return nil, fmt.Errorf("blocks=%d: PSG differs from single-wave run", blocks)
		}
		secs := sum.SectionMax
		t.Add(blocks, nodes, sum.Time, secs[core.SectionB],
			secs[core.SectionAlign], secs[core.SectionWait],
			sum.PeakBytes, sum.BytesOnWire)
	}
	return t, nil
}
