package experiments

import (
	"fmt"

	"repro/internal/core"
)

// threadSweep is the intra-rank thread counts the hybrid-parallelism study
// sweeps (the follow-up paper's OpenMP-threads-per-rank dimension).
var threadSweep = []int{1, 2, 4, 8, 16}

// ThreadScaling measures intra-rank thread scaling at a fixed node count:
// the virtual time of the whole pipeline and of its two thread-parallel
// stages (SpGEMM and alignment) as Config.Threads grows. The similarity
// graph itself is bit-identical across the sweep (asserted here), so the
// table isolates the pure performance effect of hybrid parallelism — the
// decisive optimization of the extreme-scale follow-up paper
// (arXiv:2303.01845).
func ThreadScaling(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "threads",
		Title:   "Intra-rank thread scaling (virtual seconds, fixed node count)",
		Columns: []string{"subs", "threads", "nodes", "total_s", "spgemm_s", "align_s", "speedup_vs_1t"},
		Notes: []string{
			"hybrid MPI+threads parallelism (follow-up paper, arXiv:2303.01845):",
			"SpGEMM multiplies column chunks and alignment runs bounded batches",
			"on an intra-rank worker pool; the PSG is identical for every thread",
			"count. Speedup saturates at the model's cores per node.",
			fmt.Sprintf("scaled dataset: %d sequences", sc.DatasetA),
		},
	}
	data, err := metaclustLike(sc.DatasetA, 101)
	if err != nil {
		return nil, err
	}
	const nodes = 16
	for _, subs := range []int{0, 25} {
		var first float64
		var refEdges []core.Edge
		for i, threads := range threadSweep {
			cfg := core.DefaultConfig()
			cfg.SubstituteKmers = subs
			cfg.CommonKmerThreshold = 1
			cfg.Threads = threads
			res, sum, err := runPastisModel(data.Records, nodes, cfg, scalingModel())
			if err != nil {
				return nil, fmt.Errorf("threads=%d s=%d: %w", threads, subs, err)
			}
			if i == 0 {
				first = sum.Time
				refEdges = res.Edges
			} else if !edgesEqual(refEdges, res.Edges) {
				return nil, fmt.Errorf("threads=%d s=%d: PSG differs from serial run", threads, subs)
			}
			secs := sum.SectionMax
			t.Add(subs, threads, nodes, sum.Time, secs[core.SectionB],
				secs[core.SectionAlign], first/sum.Time)
		}
	}
	return t, nil
}

func edgesEqual(a, b []core.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
