// Package metrics implements the weighted precision and recall measures the
// paper uses to compare predicted protein clusters against curated families
// (Section VI-B, following Bernardes et al. 2015):
//
//   - weighted precision penalizes clusters mixing several families: each
//     cluster contributes its purity (largest single-family share) weighted
//     by cluster size;
//   - weighted recall penalizes families split across clusters: each family
//     contributes the largest fraction captured by a single cluster,
//     weighted by family size.
//
// Proteins labeled with a negative family id are background noise: they are
// excluded from both measures (they belong to no curated family), but their
// presence inside a cluster still dilutes that cluster's purity.
package metrics

// PrecisionRecall scores clusters (member index lists) against the
// ground-truth family assignment (families[i] < 0 = unlabeled noise).
// Proteins absent from every cluster count as singleton clusters for
// recall purposes.
func PrecisionRecall(clusters [][]int, families []int) (precision, recall float64) {
	nFam := 0
	famSize := map[int]int{}
	for _, f := range families {
		if f >= 0 {
			famSize[f]++
			nFam++
		}
	}
	if nFam == 0 {
		return 0, 0
	}

	// bestInCluster[f] tracks max_c n_cf for recall.
	bestInFam := map[int]int{}
	clustered := make([]bool, len(families))

	var precNum, precDen float64
	score := func(members []int) {
		famCount := map[int]int{}
		labeled := 0
		for _, m := range members {
			if f := families[m]; f >= 0 {
				famCount[f]++
				labeled++
			}
		}
		// Purity: the cluster's largest single-family overlap over its
		// *full* size, so noise members dilute it.
		best := 0
		for f, n := range famCount {
			if n > best {
				best = n
			}
			if n > bestInFam[f] {
				bestInFam[f] = n
			}
		}
		if labeled > 0 {
			precNum += float64(best)
			precDen += float64(len(members))
		}
	}

	for _, members := range clusters {
		for _, m := range members {
			clustered[m] = true
		}
		score(members)
	}
	// Unclustered labeled proteins are implicit singletons: pure clusters
	// of size 1 (their family's best coverage may still come from here).
	for i, f := range families {
		if !clustered[i] && f >= 0 {
			score([]int{i})
		}
	}

	if precDen > 0 {
		precision = precNum / precDen
	}
	var recNum, recDen float64
	for f, size := range famSize {
		recNum += float64(bestInFam[f])
		recDen += float64(size)
	}
	if recDen > 0 {
		recall = recNum / recDen
	}
	return precision, recall
}
