package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/synth"
)

// CascadeStaged evaluates the staged alignment cascade (align.Cascade:
// ug prefilter -> gapped rescue, the MMseqs2-style filter chain the
// extreme-scale follow-up gets its throughput from) against the pure
// kernels it composes. The workloads are the cascade's target regime:
// high-identity families any kernel accepts, plus a large unrelated pool
// that — with substitute k-mers widening the candidate set — makes most
// candidate pairs chance collisions.
//
// Two properties are asserted, not just displayed, on every workload:
// the ug+sw cascade must reproduce the pure-sw similarity graph exactly
// (same accepted edges under the paper's 30% identity / 70% coverage
// cutoffs) at >=3x fewer total DP cells, and the prefilter must actually
// reject pairs (Stats.PairsPerStage[0].Rejected > 0) — otherwise the
// cascade is just sw with extra steps.
func CascadeStaged(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "cascade",
		Title:   "Staged alignment cascade (prefilter -> rescue) vs pure kernels",
		Columns: []string{"workload", "mode", "nodes", "total_s", "align_s", "dp_cells", "cells_vs_sw", "examined", "pre_reject", "rescued", "edges"},
		Notes: []string{
			"cascade modes run every candidate through the cheap ungapped",
			"prefilter and re-align only pairs scoring above the permissive",
			"gate with the expensive kernel; dismissed pairs yield no edge",
			"under either weighting mode. asserted:",
			"ug+sw edge set == pure sw at >=3x fewer DP cells, with a",
			"nonzero prefilter reject count (Stats.PairsPerStage)",
		},
	}
	n := sc.ScopeFamilies
	if n < 4 {
		n = 4
	}
	workloads := []struct {
		name       string
		divergence float64
		seed       int64
	}{
		{"high-identity", 0.04, 331},
		{"moderate", 0.12, 337},
	}
	const nodes = 4
	modes := []core.AlignMode{core.AlignSW, "ug+sw", core.AlignWFA, "ug+wfa"}

	for _, wl := range workloads {
		data, err := synth.Generate(synth.Config{
			Seed: wl.seed, NumFamilies: n, MembersMean: 5, Singletons: n * 30,
			MinLen: 150, MaxLen: 280, Divergence: wl.divergence, IndelRate: 0.3,
		})
		if err != nil {
			return nil, err
		}
		results := map[core.AlignMode]*core.Result{}
		for _, mode := range modes {
			cfg := core.DefaultConfig()
			cfg.Align = mode
			// No common-k-mer prune: the cascade is the alternative filter
			// for the collision-heavy substitute candidate set, applied at
			// alignment time instead of matrix time.
			cfg.SubstituteKmers = 25
			res, sum, err := runPastisModel(data.Records, nodes, cfg, scalingModel())
			if err != nil {
				return nil, fmt.Errorf("cascade %s on %s: %w", mode, wl.name, err)
			}
			results[mode] = res
			ratio, examined, reject, rescued := "1.00", "-", "-", "-"
			if sw := results[core.AlignSW]; mode != core.AlignSW && sw != nil && sw.Stats.CellsComputed > 0 {
				ratio = fmt.Sprintf("%.2f", float64(res.Stats.CellsComputed)/float64(sw.Stats.CellsComputed))
			}
			if ps := res.Stats.PairsPerStage; len(ps) == 2 {
				examined = fmt.Sprint(ps[0].Examined)
				reject = fmt.Sprint(ps[0].Rejected)
				rescued = fmt.Sprint(ps[1].Examined)
			}
			t.Add(wl.name, string(mode), nodes, sum.Time, sum.SectionMax[core.SectionAlign],
				res.Stats.CellsComputed, ratio, examined, reject, rescued, len(res.Edges))
		}

		// The cascade contract on this workload.
		sw, cas := results[core.AlignSW], results["ug+sw"]
		if len(sw.Edges) == 0 {
			return nil, fmt.Errorf("cascade: pure sw found no edges on %s; dataset too sparse", wl.name)
		}
		if len(cas.Edges) != len(sw.Edges) {
			return nil, fmt.Errorf("cascade: ug+sw graph differs from sw on %s (%d vs %d edges)",
				wl.name, len(cas.Edges), len(sw.Edges))
		}
		for i := range sw.Edges {
			if cas.Edges[i] != sw.Edges[i] {
				return nil, fmt.Errorf("cascade: ug+sw edge %d differs from sw on %s: %+v vs %+v",
					i, wl.name, cas.Edges[i], sw.Edges[i])
			}
		}
		if cas.Stats.CellsComputed*3 > sw.Stats.CellsComputed {
			return nil, fmt.Errorf("cascade: ug+sw cells %d not >=3x below sw %d on %s (%.1fx)",
				cas.Stats.CellsComputed, sw.Stats.CellsComputed, wl.name,
				float64(sw.Stats.CellsComputed)/float64(cas.Stats.CellsComputed))
		}
		if len(cas.Stats.PairsPerStage) != 2 || cas.Stats.PairsPerStage[0].Rejected <= 0 {
			return nil, fmt.Errorf("cascade: prefilter rejected nothing on %s: %+v",
				wl.name, cas.Stats.PairsPerStage)
		}
	}
	return t, nil
}
