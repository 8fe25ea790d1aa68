package mmseqs

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/synth"
)

func dataset(t testing.TB, seed int64) *synth.Labeled {
	t.Helper()
	data, err := synth.Generate(synth.Config{
		Seed: seed, NumFamilies: 6, MembersMean: 5, Singletons: 10,
		MinLen: 80, MaxLen: 200, Divergence: 0.2, IndelRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func runOn(t testing.TB, recs []fasta.Record, p int, cfg Config) ([]core.Edge, Stats, mpi.Summary) {
	t.Helper()
	var edges []core.Edge
	var stats Stats
	cl := mpi.NewCluster(p, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		e, s, err := Run(c, recs, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			edges, stats = e, s
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := cl.Summary()
	return edges, stats, sum
}

func TestFindsFamilyPairs(t *testing.T) {
	data := dataset(t, 1)
	edges, stats, _ := runOn(t, data.Records, 1, DefaultConfig())
	if len(edges) == 0 {
		t.Fatal("no edges")
	}
	if stats.Gapped == 0 || stats.Ungapped == 0 {
		t.Errorf("stats look empty: %+v", stats)
	}
	intra, inter := 0, 0
	for _, e := range edges {
		if data.Families[e.R] >= 0 && data.Families[e.R] == data.Families[e.C] {
			intra++
		} else {
			inter++
		}
	}
	if intra < 5*inter {
		t.Errorf("precision proxy too low: %d intra, %d inter", intra, inter)
	}
}

// Results must not depend on the rank count (query-split parallelism).
func TestProcessCountOblivious(t *testing.T) {
	data := dataset(t, 2)
	cfg := DefaultConfig()
	cfg.Sensitivity = 1
	var ref []core.Edge
	for _, p := range []int{1, 2, 4} {
		edges, _, _ := runOn(t, data.Records, p, cfg)
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].R != edges[j].R {
				return edges[i].R < edges[j].R
			}
			return edges[i].C < edges[j].C
		})
		if ref == nil {
			ref = edges
			continue
		}
		if len(edges) != len(ref) {
			t.Fatalf("p=%d: %d edges vs %d", p, len(edges), len(ref))
		}
		for i := range ref {
			if edges[i] != ref[i] {
				t.Fatalf("p=%d: edge %d differs", p, i)
			}
		}
	}
	if len(ref) == 0 {
		t.Fatal("no edges to compare")
	}
}

// Higher sensitivity must generate more similar k-mers and at least as many
// candidate pairs — the knob the paper sweeps (1, 5.7, 7.5).
func TestSensitivityMonotone(t *testing.T) {
	data := dataset(t, 3)
	var prevSimilar, prevCand int64 = -1, -1
	for _, s := range []float64{1, 5.7, 7.5} {
		cfg := DefaultConfig()
		cfg.Sensitivity = s
		_, stats, _ := runOn(t, data.Records, 1, cfg)
		if stats.SimilarKmers <= prevSimilar {
			t.Errorf("s=%.1f: similar k-mers %d not increasing (prev %d)",
				s, stats.SimilarKmers, prevSimilar)
		}
		if stats.CandidatePairs < prevCand {
			t.Errorf("s=%.1f: candidates %d decreased (prev %d)",
				s, stats.CandidatePairs, prevCand)
		}
		prevSimilar, prevCand = stats.SimilarKmers, stats.CandidatePairs
	}
}

// The serial gather stage must flatten scaling: per-rank compute shrinks
// with p but rank 0's post-processing does not.
func TestSerialPostProcessingLimitsScaling(t *testing.T) {
	data := dataset(t, 4)
	cfg := DefaultConfig()
	t1 := func() float64 {
		_, _, sum := runOn(t, data.Records, 1, cfg)
		return sum.Time
	}()
	t4 := func() float64 {
		_, _, sum := runOn(t, data.Records, 4, cfg)
		return sum.Time
	}()
	if t4 >= t1 {
		t.Errorf("4 ranks (%g) not faster than 1 (%g)", t4, t1)
	}
	if t1/t4 > 3.9 {
		t.Errorf("speedup %f too ideal: the serial stage should cap it", t1/t4)
	}
}

func TestEdgesNormalized(t *testing.T) {
	data := dataset(t, 5)
	edges, _, _ := runOn(t, data.Records, 1, DefaultConfig())
	for _, e := range edges {
		if e.R >= e.C {
			t.Fatalf("edge not normalized: %+v", e)
		}
	}
	seen := map[[2]int64]bool{}
	for _, e := range edges {
		k := [2]int64{int64(e.R), int64(e.C)}
		if seen[k] {
			t.Fatalf("duplicate pair %v", k)
		}
		seen[k] = true
	}
}

func TestBadConfig(t *testing.T) {
	cl := mpi.NewCluster(1, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		_, _, err := Run(c, nil, Config{K: 0})
		if err == nil {
			return fmt.Errorf("k=0 should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimilarKmerBudget(t *testing.T) {
	if similarKmerBudget(-3) != 0 {
		t.Error("negative sensitivity should clamp")
	}
	if !(similarKmerBudget(1) < similarKmerBudget(5.7) &&
		similarKmerBudget(5.7) < similarKmerBudget(7.5)) {
		t.Error("budget must grow with sensitivity")
	}
}
