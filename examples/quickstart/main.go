// Quickstart: build a protein similarity graph from a synthetic dataset
// with the default PASTIS configuration, print the strongest edges, then
// rebuild it with a staged alignment cascade (ug prefilter → wavefront
// rescue) and show the per-stage breakdown next to the single-kernel cost.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	// A small SCOPe-like dataset: 10 protein families plus noise sequences,
	// deterministic for the given seed.
	data, err := pastis.GenerateScopeLike(10, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d sequences in %d families (plus noise)\n",
		len(data.Records), data.NumFam)

	// Default configuration: k=6 exact k-mer matching, x-drop alignment,
	// ANI weights with the 30%/70% identity/coverage filters. Substitute
	// k-mers widen the candidate set (more remote homologs, but also more
	// chance collisions — exactly what the cascade below is for).
	cfg := pastis.DefaultConfig()
	cfg.SubstituteKmers = 25

	// Run on a simulated 16-node cluster. The resulting graph is identical
	// for any (square) node count.
	res, err := pastis.BuildGraph(data.Records, 16, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %d pairs aligned, %d edges kept, %d DP cells, %.3g virtual seconds on %d nodes\n",
		res.Stats.PairsAligned, len(res.Edges), res.Stats.CellsComputed, res.Time, res.Nodes)

	// Show the ten strongest similarities. Members of the same family share
	// the f<NNNN> prefix in their names, so correct edges are visible at a
	// glance.
	edges := append([]pastis.Edge(nil), res.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Weight > edges[j].Weight })
	if len(edges) > 10 {
		edges = edges[:10]
	}
	fmt.Println("\nstrongest edges (identity-weighted):")
	for _, e := range edges {
		fmt.Printf("  %-12s %-12s identity=%.2f coverage=%.2f score=%d\n",
			data.Records[e.R].ID, data.Records[e.C].ID, e.Ident, e.Cov, e.Score)
	}

	// Same pipeline, but alignment runs as a staged cascade: the cheap
	// ungapped prefilter scores every candidate pair, and only pairs above
	// the permissive gate are re-aligned by the x-drop kernel. Any
	// "stage+stage" spec of table kernels is a valid mode ("ug+wfa" is the
	// canonical one; "ug:60+sw" would move the gate). On this remote-
	// homolog dataset the prefilter trades a few low-identity edges for the
	// cells it saves; on high-identity candidate sets the trade vanishes
	// (the `cascade` experiment asserts ug+sw reproduces sw's graph exactly
	// at >=3x fewer cells there).
	cfg.Align = "ug+xd"
	cas, err := pastis.BuildGraph(data.Records, 16, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncascade %s: %d edges (pure %s: %d), %d DP cells (%.1fx fewer)\n",
		cfg.Align, len(cas.Edges), pastis.AlignXDrop, len(res.Edges),
		cas.Stats.CellsComputed,
		float64(res.Stats.CellsComputed)/float64(cas.Stats.CellsComputed))
	for i, sp := range cas.Stats.PairsPerStage {
		fmt.Printf("  stage %-3s examined %4d  passed %4d  rejected %4d  cells %d\n",
			sp.Name, sp.Examined, sp.Passed, sp.Rejected, cas.Stats.CellsPerStage[i])
	}
}
