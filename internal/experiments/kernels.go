package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/synth"
)

// Kernels compares every registered alignment kernel on high-identity
// synthetic families — the regime the post-SpGEMM candidate set lives in,
// where cheap kernels are the main scaling lever (extreme-scale follow-up,
// arXiv:2303.01845). One dataset, one node count, one kernel per run: the
// table reports virtual time, the align component, the DP cells the kernel
// actually computed (its virtual-clock charge), edges, and pair recall
// against the ground-truth families.
//
// Two properties are asserted, not just displayed, because the wavefront
// kernel's whole claim rests on them: on this >=90%-identity workload wfa
// must keep the similarity graph identical to sw under the default ANI
// thresholds while computing at least 5x fewer DP cells.
func Kernels(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "kernels",
		Title:   "Alignment kernels on high-identity families (fixed input)",
		Columns: []string{"kernel", "nodes", "total_s", "align_s", "dp_cells", "cells_vs_sw", "edges", "pair_recall"},
		Notes: []string{
			"pluggable kernel sweep: sw = full Smith-Waterman, xd = gapped x-drop",
			"seed extension, wfa = adaptive wavefront (O(ns): cost scales with",
			"dissimilarity, not length^2), ug = ungapped seed extension.",
			"kernels report cells computed, so the clock charges wfa's sparse",
			"wavefront cost; on >=90%-identity pairs wfa reproduces sw's graph",
			"at >=5x fewer cells (asserted), ug trades recall for near-zero cost",
		},
	}
	// High-identity families (divergence 4% from the ancestor => pairwise
	// identity >= ~90%), long enough that sw's quadratic cells dominate.
	n := sc.ScopeFamilies * 8
	if n < 48 {
		n = 48
	}
	data, err := synth.Generate(synth.Config{
		Seed: 271, NumFamilies: n / 8, MembersMean: 5, Singletons: n / 4,
		MinLen: 250, MaxLen: 400, Divergence: 0.04, IndelRate: 0.3,
	})
	if err != nil {
		return nil, err
	}
	famPairs := map[[2]int64]bool{}
	byFam := map[int][]int64{}
	for i, f := range data.Families {
		if f >= 0 {
			byFam[f] = append(byFam[f], int64(i))
		}
	}
	for _, members := range byFam {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				famPairs[[2]int64{members[i], members[j]}] = true
			}
		}
	}

	const nodes = 4
	pairSets := map[core.AlignMode]map[[2]int64]bool{}
	cellsByMode := map[core.AlignMode]int64{}
	for _, mode := range core.KernelModes() {
		cfg := core.DefaultConfig()
		cfg.Align = mode
		// The paper's CK filter (t=1 for exact k-mers) prunes the one-shared-
		// k-mer random collisions, leaving the high-identity candidate set
		// this experiment is about: family pairs share many exact 6-mers at
		// >=90% identity, unrelated collision pairs almost never share two.
		cfg.CommonKmerThreshold = 1
		res, sum, err := runPastisModel(data.Records, nodes, cfg, scalingModel())
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", mode, err)
		}
		pairs := map[[2]int64]bool{}
		hits := 0
		for _, e := range res.Edges {
			p := [2]int64{int64(e.R), int64(e.C)}
			pairs[p] = true
			if famPairs[p] {
				hits++
			}
		}
		pairSets[mode] = pairs
		cellsByMode[mode] = res.Stats.CellsComputed
		recall := 0.0
		if len(famPairs) > 0 {
			recall = float64(hits) / float64(len(famPairs))
		}
		ratio := "1.00"
		if swCells := cellsByMode[core.AlignSW]; swCells > 0 && mode != core.AlignSW {
			ratio = fmt.Sprintf("%.2f", float64(res.Stats.CellsComputed)/float64(swCells))
		}
		t.Add(string(mode), nodes, sum.Time, sum.SectionMax[core.SectionAlign],
			res.Stats.CellsComputed, ratio, len(res.Edges), recall)
	}

	// The wavefront kernel's contract on this workload.
	swPairs, wfaPairs := pairSets[core.AlignSW], pairSets[core.AlignWFA]
	if len(swPairs) == 0 {
		return nil, fmt.Errorf("kernels: sw found no edges; dataset too sparse to compare")
	}
	if !samePairSet(swPairs, wfaPairs) {
		return nil, fmt.Errorf("kernels: wfa similarity graph differs from sw (%d vs %d pairs)",
			len(wfaPairs), len(swPairs))
	}
	if swc, wfc := cellsByMode[core.AlignSW], cellsByMode[core.AlignWFA]; wfc*5 > swc {
		return nil, fmt.Errorf("kernels: wfa cells %d not >=5x below sw %d (%.1fx)",
			wfc, swc, float64(swc)/float64(wfc))
	}
	return t, nil
}

func samePairSet(a, b map[[2]int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}
