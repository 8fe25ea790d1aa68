package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/kmer"
	"repro/internal/scoring"
	"repro/internal/subkmer"
)

// matrixOnly returns the configuration for the sparse-matrix-only scaling
// studies: Figs. 14-16 exclude alignment (paper Section VI-A).
func matrixOnly(subs int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Align = core.AlignNone
	cfg.SubstituteKmers = subs
	return cfg
}

// Fig14Strong reproduces the strong-scaling plot: fixed dataset, node
// counts 64..2025, substitute k-mers in {0,10,25,50}.
func Fig14Strong(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig14strong",
		Title:   "Strong scaling of the sparse matrix pipeline (virtual seconds)",
		Columns: []string{"subs", "nodes", "time_s", "speedup_vs_first"},
		Notes: []string{
			"paper Fig. 14 left: metaclust50-2.5M, nodes 64..2025; exact k-mers",
			"scale better than substitute k-mers; runtime grows with s",
			fmt.Sprintf("scaled dataset: %d sequences", sc.ScalingDataset),
		},
	}
	data, err := metaclustLike(sc.ScalingDataset, 103)
	if err != nil {
		return nil, err
	}
	for _, subs := range []int{0, 10, 25, 50} {
		var first float64
		for i, nodes := range sc.NodesLarge {
			p := squareAtMost(nodes)
			_, sum, err := runPastisModel(data.Records, p, matrixOnly(subs), scalingModel())
			if err != nil {
				return nil, fmt.Errorf("s=%d @%d: %w", subs, p, err)
			}
			tm := sum.Time
			if i == 0 {
				first = tm
			}
			t.Add(subs, p, tm, first/tm)
		}
	}
	return t, nil
}

// Fig14Weak reproduces the weak-scaling plot: sequences double per 4x
// nodes (1.25M@64 -> 2.5M@256 -> 5M@1024 in the paper).
func Fig14Weak(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig14weak",
		Title:   "Weak scaling of the sparse matrix pipeline (virtual seconds)",
		Columns: []string{"subs", "nodes", "sequences", "time_s", "nnzB"},
		Notes: []string{
			"paper Fig. 14 right: B's nonzeros grow ~4x when sequences double,",
			"yet lines slope down because 4x nodes join per step",
		},
	}
	for _, subs := range []int{0, 10, 25, 50} {
		seqs := sc.WeakBase
		for _, nodes := range sc.WeakNodes {
			p := squareAtMost(nodes)
			data, err := weakDataset(seqs, sc.WeakBase, 104)
			if err != nil {
				return nil, err
			}
			res, sum, err := runPastisModel(data.Records, p, matrixOnly(subs), scalingModel())
			if err != nil {
				return nil, fmt.Errorf("weak s=%d @%d: %w", subs, p, err)
			}
			t.Add(subs, p, len(data.Records), sum.Time, res.Stats.NNZB)
			seqs *= 2
		}
	}
	return t, nil
}

// fig15Components is the component order of the paper's stacked bars.
var fig15Components = []string{
	core.SectionFasta, core.SectionFormA, core.SectionTrA, core.SectionFormS,
	core.SectionAS, core.SectionB, core.SectionSym, core.SectionWait,
}

// Fig15 reproduces the time dissection: percentage of total time per
// component, for each substitute-k-mer count and node count.
func Fig15(sc Scale) (*Table, error) {
	cols := append([]string{"subs", "nodes"}, fig15Components...)
	t := &Table{
		ID:      "fig15",
		Title:   "Percentage of time in pipeline components",
		Columns: cols,
		Notes: []string{
			"paper Fig. 15: wait dominates at small node counts for s=0 and",
			"fades for s>0; SpGEMM's share grows with node count",
			"form S is each rank searching the k-mers of its block of A (S is not",
			"assembled): at most sqrt(p) ranks search a k-mer, so its share shrinks",
		},
	}
	data, err := metaclustLike(sc.ScalingDataset, 103)
	if err != nil {
		return nil, err
	}
	for _, subs := range []int{0, 10, 25, 50} {
		for _, nodes := range sc.NodesLarge {
			p := squareAtMost(nodes)
			_, sum, err := runPastisModel(data.Records, p, matrixOnly(subs), scalingModel())
			if err != nil {
				return nil, err
			}
			secs := sum.SectionMean
			total := 0.0
			for _, name := range fig15Components {
				total += secs[name]
			}
			row := []any{subs, p}
			for _, name := range fig15Components {
				pct := 0.0
				if total > 0 {
					pct = 100 * secs[name] / total
				}
				row = append(row, fmt.Sprintf("%.1f", pct))
			}
			t.Add(row...)
		}
	}
	return t, nil
}

// Fig16 reproduces the per-component scaling curves for s=0 and s=25.
func Fig16(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig16",
		Title:   "Scaling behavior of pipeline components (virtual seconds)",
		Columns: []string{"subs", "nodes", "total", "component", "time_s"},
		Notes: []string{
			"paper Fig. 16: SpGEMM ((AS)AT) is the least scalable component;",
			"fasta/form A/wait shrink fast with node count",
		},
	}
	data, err := metaclustLike(sc.ScalingDataset, 103)
	if err != nil {
		return nil, err
	}
	for _, subs := range []int{0, 25} {
		for _, nodes := range sc.NodesLarge {
			p := squareAtMost(nodes)
			_, sum, err := runPastisModel(data.Records, p, matrixOnly(subs), scalingModel())
			if err != nil {
				return nil, err
			}
			secs := sum.SectionMean
			names := make([]string, 0, len(secs))
			for name := range secs {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				t.Add(subs, p, sum.Time, name, secs[name])
			}
		}
	}
	return t, nil
}

// Claims verifies the quantitative statements quoted in the paper's text.
func Claims(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "claims",
		Title:   "Quantitative text claims",
		Columns: []string{"claim", "paper", "measured"},
	}
	// The alignment-multiplier claim needs the paper's regime: homologs
	// diverged enough that exact 6-mer matching starves while substitute
	// k-mers recover pairs (Metaclust50 clusters at 50% identity, so its
	// members are remote); use a high-divergence family dataset here.
	data, err := divergedDataset(sc.DatasetA, 101)
	if err != nil {
		return nil, err
	}

	// Claim 1: substitute k-mers multiply the number of alignments
	// (paper: 399M -> 3.5B, a factor of 8.7x, metaclust50-0.5M, s=25).
	exactRes, _, err := runPastis(data.Records, 4, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	subCfg := core.DefaultConfig()
	subCfg.SubstituteKmers = 25
	subRes, _, err := runPastis(data.Records, 4, subCfg)
	if err != nil {
		return nil, err
	}
	ratio := float64(subRes.Stats.PairsAligned) / float64(exactRes.Stats.PairsAligned)
	t.Add("alignments s=25 / s=0", "8.7x", fmt.Sprintf("%.1fx (%d / %d)",
		ratio, subRes.Stats.PairsAligned, exactRes.Stats.PairsAligned))

	// Claim 2: doubling sequences roughly quadruples B's nonzeros
	// (paper: 10.9, 43.3, 172.3 billion nonzeros for 1.25M/2.5M/5M, s=25).
	cfg := matrixOnly(25)
	var prev int64
	growth := ""
	for i, n := range []int{sc.WeakBase, sc.WeakBase * 2, sc.WeakBase * 4} {
		wdata, err := weakDataset(n, sc.WeakBase, 104)
		if err != nil {
			return nil, err
		}
		res, _, err := runPastis(wdata.Records, 16, cfg)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			growth += fmt.Sprintf("%.1fx ", float64(res.Stats.NNZB)/float64(prev))
		}
		prev = res.Stats.NNZB
	}
	t.Add("nnz(B) growth per 2x sequences (s=25)", "~4x, 4x", growth)

	// Claim 3: hypersparsity — nonzeros per column of A and S are far below
	// one (paper: 0.44 and 2.50 nnz/column at 1M sequences, k=6, before 2D
	// splitting makes blocks even sparser), motivating DCSC. The pipeline never
	// assembles S: a distinct k-mer's row holds itself and its substitutes.
	res, _, err := runPastis(data.Records, 4, matrixOnly(0))
	if err != nil {
		return nil, err
	}
	finder, err := subkmer.NewFinder(6, scoring.NewExpense(scoring.BLOSUM62), 25)
	if err != nil {
		return nil, err
	}
	var nnzS int64
	rowsOfS := map[kmer.ID]bool{}
	for _, rec := range data.Records {
		kms, err := kmer.Extract(rec.Seq, 6, true)
		if err != nil {
			return nil, err
		}
		for _, km := range kms {
			if !rowsOfS[km.ID] {
				rowsOfS[km.ID] = true
				nnzS += int64(1 + len(finder.AppendFind(nil, km.ID)))
			}
		}
	}
	kspace := 191102976.0 // 24^6
	t.Add("nnz per column of A (k=6)", "0.44 (at 1M seqs)",
		fmt.Sprintf("%.6f (at %d seqs)", float64(res.Stats.NNZA)/kspace, sc.DatasetA))
	t.Add("nnz per column of S (s=25)", "2.50 (at 1M seqs)",
		fmt.Sprintf("%.6f", float64(nnzS)/kspace))

	// Claim 4: the PSG is oblivious to the process count.
	small, err := scopeLike(6, 105)
	if err != nil {
		return nil, err
	}
	match := "yes"
	var ref []core.Edge
	for _, p := range []int{1, 4, 9, 16} {
		r, _, err := runPastis(small.Records, p, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = r.Edges
			continue
		}
		if len(ref) != len(r.Edges) {
			match = fmt.Sprintf("NO (p=%d differs)", p)
			break
		}
		for i := range ref {
			if ref[i] != r.Edges[i] {
				match = fmt.Sprintf("NO (p=%d differs)", p)
				break
			}
		}
	}
	t.Add("PSG identical for p in {1,4,9,16}", "yes (Section V)", match)
	return t, nil
}
