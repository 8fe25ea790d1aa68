package experiments

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/last"
	"repro/internal/mcl"
	"repro/internal/metrics"
	"repro/internal/mmseqs"
	"repro/internal/mpi"
)

// relevanceNodes is the grid used for the relevance runs; quality results
// are process-count oblivious so any square count works.
const relevanceNodes = 4

// deriveANI filters an NS-mode edge set down to the ANI rules and reweights
// by identity: one pipeline run yields both weighting variants, exactly as
// the same alignments would in the paper's setup.
func deriveANI(edges []core.Edge, minIdent, minCov float64) []core.Edge {
	var out []core.Edge
	for _, e := range edges {
		if e.Ident >= minIdent && e.Cov >= minCov {
			e.Weight = e.Ident
			out = append(out, e)
		}
	}
	return out
}

func clusterAndScore(n int, edges []core.Edge, families []int) (p, r float64, err error) {
	in := make([]mcl.Edge, len(edges))
	for i, e := range edges {
		in[i] = mcl.Edge{R: int64(e.R), C: int64(e.C), Weight: e.Weight}
	}
	clusters, err := mcl.Cluster(n, in, mcl.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	p, r = metrics.PrecisionRecall(clusters, families)
	return p, r, nil
}

func componentsAndScore(n int, edges []core.Edge, families []int) (p, r float64) {
	rows := make([]int64, len(edges))
	cols := make([]int64, len(edges))
	for i, e := range edges {
		rows[i], cols[i] = int64(e.R), int64(e.C)
	}
	comps := cc.FromEdges(n, rows, cols)
	return metrics.PrecisionRecall(comps, families)
}

// relevanceRun is one PASTIS configuration evaluated on the scope-like data.
type relevanceRun struct {
	mode core.AlignMode
	subs int
	ck   bool
}

func (rr relevanceRun) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Align = rr.mode
	cfg.SubstituteKmers = rr.subs
	// NS mode retains every positive-scoring pair with full statistics; the
	// ANI variants are derived from the same run by filtering.
	cfg.Weight = core.WeightNS
	if rr.ck {
		if rr.subs == 0 {
			cfg.CommonKmerThreshold = 1
		} else {
			cfg.CommonKmerThreshold = 3
		}
	}
	return cfg
}

// Fig17 reproduces the precision/recall scatter: PASTIS (SW/XD, ANI/NS,
// with and without CK, s in {0,10,25,50}) vs MMseqs2-like (three
// sensitivities, ANI and NS) vs LAST-like (three match limits, ANI), all
// clustered with MCL and scored against ground-truth families.
func Fig17(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig17",
		Title:   "Precision and recall after MCL clustering (scope-like data)",
		Columns: []string{"method", "param", "precision", "recall", "edges"},
		Notes: []string{
			"paper Fig. 17: precision 0.65-0.90, recall 0.48-0.62; more",
			"substitute k-mers trade precision for recall; NS is viable vs ANI;",
			"CK costs 2-3% recall",
		},
	}
	data, err := scopeLike(sc.ScopeFamilies, 106)
	if err != nil {
		return nil, err
	}
	n := len(data.Records)

	// Every registered kernel joins the sweep (the paper's Fig. 17 covers
	// SW and XD; wfa and ug extend the same grid): the full substitute
	// sweep without CK, plus the paper's s={0,25} CK points.
	var runs []relevanceRun
	for _, mode := range core.KernelModes() {
		for _, subs := range []int{0, 10, 25, 50} {
			runs = append(runs, relevanceRun{mode, subs, false})
		}
	}
	for _, mode := range core.KernelModes() {
		for _, subs := range []int{0, 25} {
			runs = append(runs, relevanceRun{mode, subs, true})
		}
	}
	for _, rr := range runs {
		res, _, err := runPastis(data.Records, relevanceNodes, rr.config())
		if err != nil {
			return nil, err
		}
		ckTag := ""
		if rr.ck {
			ckTag = "-CK"
		}
		// ANI variant (filtered + identity weights).
		ani := deriveANI(res.Edges, 0.30, 0.70)
		p, r, err := clusterAndScore(n, ani, data.Families)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("PASTIS-%s-ANI%s", rr.mode, ckTag), fmt.Sprintf("s=%d", rr.subs),
			p, r, len(ani))
		// NS variant (no cut-off), only for the non-CK runs as in Fig. 17.
		if !rr.ck {
			p, r, err = clusterAndScore(n, res.Edges, data.Families)
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprintf("PASTIS-%s-NS", rr.mode), fmt.Sprintf("s=%d", rr.subs),
				p, r, len(res.Edges))
		}
	}

	for _, sens := range []float64{1, 5.7, 7.5} {
		mcfg := mmseqs.DefaultConfig()
		mcfg.Sensitivity = sens
		mcfg.Weight = core.WeightNS
		mcfg.MinIdentity, mcfg.MinCoverage = 0, 0
		edges, _, err := mmseqs.RunCluster(data.Records, relevanceNodes, mcfg, mpi.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		ani := deriveANI(edges, 0.30, 0.70)
		p, r, err := clusterAndScore(n, ani, data.Families)
		if err != nil {
			return nil, err
		}
		t.Add("MMseqs2-ANI", fmt.Sprintf("s=%.1f", sens), p, r, len(ani))
		p, r, err = clusterAndScore(n, edges, data.Families)
		if err != nil {
			return nil, err
		}
		t.Add("MMseqs2-NS", fmt.Sprintf("s=%.1f", sens), p, r, len(edges))
	}

	for _, m := range []int{100, 300, 500} {
		lcfg := last.DefaultConfig()
		lcfg.MaxInitialMatches = m
		edges, _, err := last.RunCluster(data.Records, lcfg, mpi.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		p, r, err := clusterAndScore(n, edges, data.Families)
		if err != nil {
			return nil, err
		}
		t.Add("LAST-ANI", fmt.Sprintf("m=%d", m), p, r, len(edges))
	}
	return t, nil
}

// Table2 reproduces "Connected components as protein families": the same
// similarity graphs scored without clustering.
func Table2(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Connected components as protein families",
		Columns: []string{"method", "param", "precision", "recall", "components"},
		Notes: []string{
			"paper Table II: with substitute k-mers precision collapses",
			"(0.67->0.22 for SW as s goes 0->50) while recall rises — clustering",
			"is indispensable for s>0; exact k-mers remain viable without it",
		},
	}
	data, err := scopeLike(sc.ScopeFamilies, 106)
	if err != nil {
		return nil, err
	}
	n := len(data.Records)

	for _, mode := range core.KernelModes() {
		for _, subs := range []int{0, 10, 25, 50} {
			rr := relevanceRun{mode: mode, subs: subs}
			res, _, err := runPastis(data.Records, relevanceNodes, rr.config())
			if err != nil {
				return nil, err
			}
			ani := deriveANI(res.Edges, 0.30, 0.70)
			rows := make([]int64, len(ani))
			cols := make([]int64, len(ani))
			for i, e := range ani {
				rows[i], cols[i] = int64(e.R), int64(e.C)
			}
			comps := cc.FromEdges(n, rows, cols)
			p, r := metrics.PrecisionRecall(comps, data.Families)
			t.Add(fmt.Sprintf("PASTIS-%s", mode), fmt.Sprintf("s=%d", subs), p, r, nontrivial(comps))
		}
	}
	for _, sens := range []float64{1, 5.7, 7.5} {
		mcfg := mmseqs.DefaultConfig()
		mcfg.Sensitivity = sens
		edges, _, err := mmseqs.RunCluster(data.Records, relevanceNodes, mcfg, mpi.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		p, r := componentsAndScore(n, edges, data.Families)
		t.Add("MMseqs2", fmt.Sprintf("s=%.1f", sens), p, r, "")
	}
	for _, m := range []int{100, 200, 300} {
		lcfg := last.DefaultConfig()
		lcfg.MaxInitialMatches = m
		edges, _, err := last.RunCluster(data.Records, lcfg, mpi.DefaultCostModel())
		if err != nil {
			return nil, err
		}
		p, r := componentsAndScore(n, edges, data.Families)
		t.Add("LAST", fmt.Sprintf("m=%d", m), p, r, "")
	}
	return t, nil
}

func nontrivial(comps [][]int) int {
	n := 0
	for _, c := range comps {
		if len(c) > 1 {
			n++
		}
	}
	return n
}
