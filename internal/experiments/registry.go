package experiments

import (
	"fmt"
	"sort"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID   string
	Desc string
	Fn   func(Scale) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig12", "runtime of PASTIS variants on two datasets", Fig12},
		{"fig13", "PASTIS vs MMseqs2-like vs LAST-like runtime", Fig13},
		{"table1", "alignment time percentage in PASTIS", Table1},
		{"fig14strong", "strong scaling of sparse matrix ops", Fig14Strong},
		{"fig14weak", "weak scaling of sparse matrix ops", Fig14Weak},
		{"fig15", "component time dissection", Fig15},
		{"fig16", "per-component scaling", Fig16},
		{"fig17", "precision/recall with MCL clustering", Fig17},
		{"table2", "connected components as families", Table2},
		{"claims", "quantitative text claims", Claims},
		{"ablations", "design-choice ablations", Ablations},
		{"threads", "intra-rank thread scaling (hybrid parallelism)", ThreadScaling},
		{"blocked", "memory-bounded wave pipeline (peak bytes vs blocks)", BlockedWaves},
		{"kernels", "alignment-kernel comparison (cells, time, recall)", Kernels},
		{"cascade", "staged alignment cascade (ug prefilter -> gapped rescue)", CascadeStaged},
	}
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0)
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
