package metrics

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPerfectClustering(t *testing.T) {
	families := []int{0, 0, 0, 1, 1}
	clusters := [][]int{{0, 1, 2}, {3, 4}}
	p, r := PrecisionRecall(clusters, families)
	if !almost(p, 1) || !almost(r, 1) {
		t.Errorf("perfect clustering: p=%f r=%f", p, r)
	}
}

func TestMixedClusterPenalizesPrecision(t *testing.T) {
	families := []int{0, 0, 1, 1}
	clusters := [][]int{{0, 1, 2, 3}} // one cluster mixing two families
	p, r := PrecisionRecall(clusters, families)
	if !almost(p, 0.5) {
		t.Errorf("precision = %f, want 0.5", p)
	}
	if !almost(r, 1) { // each family fully captured by the single cluster
		t.Errorf("recall = %f, want 1", r)
	}
}

func TestSplitFamilyPenalizesRecall(t *testing.T) {
	families := []int{0, 0, 0, 0}
	clusters := [][]int{{0, 1}, {2, 3}} // family split in two
	p, r := PrecisionRecall(clusters, families)
	if !almost(p, 1) {
		t.Errorf("precision = %f, want 1", p)
	}
	if !almost(r, 0.5) {
		t.Errorf("recall = %f, want 0.5", r)
	}
}

func TestNoiseDilutesPrecision(t *testing.T) {
	families := []int{0, 0, -1, -1}
	clusters := [][]int{{0, 1, 2, 3}} // 2 family members + 2 noise proteins
	p, r := PrecisionRecall(clusters, families)
	if !almost(p, 0.5) {
		t.Errorf("precision = %f, want 0.5 (noise dilutes)", p)
	}
	if !almost(r, 1) {
		t.Errorf("recall = %f, want 1", r)
	}
}

func TestUnclusteredProteinsAreSingletons(t *testing.T) {
	families := []int{0, 0, 0, 0}
	clusters := [][]int{{0, 1}} // proteins 2 and 3 unclustered
	p, r := PrecisionRecall(clusters, families)
	if !almost(p, 1) { // {0,1} pure, implicit {2}, {3} pure
		t.Errorf("precision = %f, want 1", p)
	}
	if !almost(r, 0.5) { // best single cluster holds 2 of 4
		t.Errorf("recall = %f, want 0.5", r)
	}
}

func TestAllNoise(t *testing.T) {
	p, r := PrecisionRecall([][]int{{0, 1}}, []int{-1, -1})
	if p != 0 || r != 0 {
		t.Errorf("all-noise should be 0/0, got %f/%f", p, r)
	}
}

func TestNoiseOnlyClusterIgnored(t *testing.T) {
	families := []int{0, 0, -1, -1}
	clusters := [][]int{{0, 1}, {2, 3}} // second cluster is pure noise
	p, r := PrecisionRecall(clusters, families)
	if !almost(p, 1) || !almost(r, 1) {
		t.Errorf("noise-only cluster should not affect scores: p=%f r=%f", p, r)
	}
}

func TestSingletonClustering(t *testing.T) {
	// Everything unclustered: precision 1 (all singletons pure), recall =
	// 1/family size.
	families := []int{0, 0, 0, 0, 1, 1}
	p, r := PrecisionRecall(nil, families)
	if !almost(p, 1) {
		t.Errorf("precision = %f, want 1", p)
	}
	want := (1.0 + 1.0) / 6.0
	if !almost(r, want) {
		t.Errorf("recall = %f, want %f", r, want)
	}
}

// Precision and recall are always within [0,1].
func TestBounds(t *testing.T) {
	families := []int{0, 1, 2, 0, 1, 2, -1, 0}
	clusterings := [][][]int{
		{{0, 1, 2, 3, 4, 5, 6, 7}},
		{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}},
		{{0, 3}, {1, 4}, {2, 5}},
		{{0, 1}, {2, 3}, {4, 5, 6, 7}},
	}
	for i, cl := range clusterings {
		p, r := PrecisionRecall(cl, families)
		if p < 0 || p > 1 || r < 0 || r > 1 {
			t.Errorf("clustering %d out of bounds: p=%f r=%f", i, p, r)
		}
	}
}
