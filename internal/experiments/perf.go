package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/last"
	"repro/internal/mmseqs"
	"repro/internal/mpi"
)

// pastisVariant names one configuration from the paper's runtime plots.
type pastisVariant struct {
	label string
	cfg   core.Config
}

// fig12Variants are the PASTIS configurations of Fig. 12 generalized to
// every listed alignment kernel: {align.Kernels()} x {s=0, s=25} x
// {plain, CK}, with the paper's CK thresholds (t=1 for exact k-mers, t=3
// for substitute k-mers). The paper's eight variants are the sw/xd subset.
func fig12Variants(subs int) []pastisVariant {
	base := core.DefaultConfig()
	var out []pastisVariant
	for _, mode := range core.KernelModes() {
		for _, s := range []int{0, subs} {
			for _, ck := range []bool{false, true} {
				cfg := base
				cfg.Align = mode
				cfg.SubstituteKmers = s
				suffix := ""
				if ck {
					if s == 0 {
						cfg.CommonKmerThreshold = 1
					} else {
						cfg.CommonKmerThreshold = 3
					}
					suffix = "-CK"
				}
				out = append(out, pastisVariant{
					label: fmt.Sprintf("PASTIS-%s-s%d%s", mode, s, suffix),
					cfg:   cfg,
				})
			}
		}
	}
	return out
}

// runPastis executes the pipeline and returns rank 0's Result and the Summary.
func runPastis(recs []fasta.Record, nodes int, cfg core.Config) (*core.Result, mpi.Summary, error) {
	return runPastisModel(recs, nodes, cfg, mpi.DefaultCostModel())
}

// scalingModel is the cost model used by the Fig. 14-16 reproductions.
// The datasets are scaled down ~3000x from the paper's 2.5M sequences, so
// with nominal node compute rates the 64-2025 node runs would sit in a
// latency-dominated regime the paper never measures. Lowering the per-node
// compute rate restores the paper's compute-to-communication ratio — the
// regime, not the absolute seconds, is what the scaling shapes depend on.
func scalingModel() mpi.CostModel {
	m := mpi.DefaultCostModel()
	m.ComputeRate = 4e7
	m.IORate = 4e7
	return m
}

// runPastisModel is runPastis with explicit virtual-time constants: the
// shared all-vs-all rank body (core.AllVsAll) on the one launcher.
func runPastisModel(recs []fasta.Record, nodes int, cfg core.Config, model mpi.CostModel) (*core.Result, mpi.Summary, error) {
	return mpi.RunLocal(context.Background(), nodes, model, nil, func(c *mpi.Comm) (*core.Result, error) {
		return core.AllVsAll(c, recs, cfg)
	})
}

// squareAtMost returns the largest perfect square <= n (PASTIS requires
// p = q^2; the paper rounds to the closest square, e.g. 2048 -> 2025).
func squareAtMost(n int) int {
	q := 1
	for (q+1)*(q+1) <= n {
		q++
	}
	return q * q
}

// Fig12 reproduces "Runtime of PASTIS variants on two datasets": eight
// variants on the scaled 0.5M and 1M stand-ins across node counts.
func Fig12(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "Runtime of PASTIS variants (virtual seconds) on two datasets",
		Columns: []string{"variant", "dataset", "nodes", "time_s", "pairs_aligned"},
		Notes: []string{
			"paper: metaclust50-0.5M and -1M, nodes 1..256, Fig. 12",
			fmt.Sprintf("scaled datasets: %d and %d sequences", sc.DatasetA, sc.DatasetB),
			"expected shape: XD < SW, CK < plain, s25 > s0; all variants scale with nodes",
		},
	}
	for _, ds := range []struct {
		name string
		n    int
		seed int64
	}{
		{fmt.Sprintf("metaclust-like-%d", sc.DatasetA), sc.DatasetA, 101},
		{fmt.Sprintf("metaclust-like-%d", sc.DatasetB), sc.DatasetB, 102},
	} {
		data, err := metaclustLike(ds.n, ds.seed)
		if err != nil {
			return nil, err
		}
		for _, v := range fig12Variants(25) {
			for _, nodes := range sc.NodesSmall {
				p := squareAtMost(nodes)
				res, sum, err := runPastis(data.Records, p, v.cfg)
				if err != nil {
					return nil, fmt.Errorf("%s on %s @%d: %w", v.label, ds.name, p, err)
				}
				t.Add(v.label, ds.name, p, sum.Time, res.Stats.PairsAligned)
			}
		}
	}
	return t, nil
}

// Fig13 reproduces "Runtime of PASTIS vs. MMseqs2 (and LAST)": the fastest
// PASTIS variant against three MMseqs2 sensitivities and single-node LAST.
func Fig13(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "PASTIS vs MMseqs2-like vs LAST-like runtime (virtual seconds)",
		Columns: []string{"tool", "dataset", "nodes", "time_s"},
		Notes: []string{
			"paper: Fig. 13 — MMseqs2 wins at small node counts; PASTIS-XD-s0-CK",
			"overtakes around 16 nodes thanks to better scaling; LAST is single-node",
		},
	}
	for _, ds := range []struct {
		name string
		n    int
		seed int64
	}{
		{fmt.Sprintf("metaclust-like-%d", sc.DatasetA), sc.DatasetA, 101},
		{fmt.Sprintf("metaclust-like-%d", sc.DatasetB), sc.DatasetB, 102},
	} {
		data, err := metaclustLike(ds.n, ds.seed)
		if err != nil {
			return nil, err
		}
		// All tools run under the scaling cost model so the reduced-scale
		// datasets sit in the paper's compute-dominated regime (see
		// scalingModel and EXPERIMENTS.md).
		model := scalingModel()
		// PASTIS-XD-s0-CK: the variant the paper nominates as fastest.
		cfg := core.DefaultConfig()
		cfg.CommonKmerThreshold = 1
		for _, nodes := range sc.NodesSmall {
			p := squareAtMost(nodes)
			_, sum, err := runPastisModel(data.Records, p, cfg, model)
			if err != nil {
				return nil, err
			}
			t.Add("PASTIS-XD-s0-CK", ds.name, p, sum.Time)
		}
		for _, sens := range []struct {
			label string
			s     float64
		}{{"MMseqs2-low", 1}, {"MMseqs2-default", 5.7}, {"MMseqs2-high", 7.5}} {
			mcfg := mmseqs.DefaultConfig()
			mcfg.Sensitivity = sens.s
			for _, nodes := range sc.NodesSmall {
				_, tm, err := mmseqs.RunCluster(data.Records, nodes, mcfg, model)
				if err != nil {
					return nil, err
				}
				t.Add(sens.label, ds.name, nodes, tm)
			}
		}
		_, lt, err := last.RunCluster(data.Records, last.DefaultConfig(), model)
		if err != nil {
			return nil, err
		}
		t.Add("LAST (1 node)", ds.name, 1, lt)
	}
	return t, nil
}

// Table1 reproduces "Alignment time percentage in PASTIS" for the eight
// variants across node counts and both datasets.
func Table1(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Alignment time percentage in PASTIS",
		Columns: []string{"scheme", "dataset", "nodes", "align_pct"},
		Notes: []string{
			"paper Table I: SW > XD, CK variants much lower, percentage grows",
			"with dataset size (quadratic pair growth vs ~linear matrix work)",
		},
	}
	for _, ds := range []struct {
		name string
		n    int
		seed int64
	}{
		{fmt.Sprintf("metaclust-like-%d", sc.DatasetA), sc.DatasetA, 101},
		{fmt.Sprintf("metaclust-like-%d", sc.DatasetB), sc.DatasetB, 102},
	} {
		data, err := metaclustLike(ds.n, ds.seed)
		if err != nil {
			return nil, err
		}
		for _, v := range fig12Variants(25) {
			for _, nodes := range sc.NodesSmall {
				p := squareAtMost(nodes)
				_, sum, err := runPastis(data.Records, p, v.cfg)
				if err != nil {
					return nil, err
				}
				total := sum.Time
				alignT := sum.SectionMax[core.SectionAlign]
				pct := 0.0
				if total > 0 {
					pct = 100 * alignT / total
				}
				t.Add(v.label, ds.name, p, fmt.Sprintf("%.2f%%", pct))
			}
		}
	}
	return t, nil
}
