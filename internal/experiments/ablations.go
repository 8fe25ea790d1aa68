package experiments

import (
	"fmt"
	"math/rand"
	"slices"

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

	// 3. Substitute k-mer search: the bounded search against the naive
	// enumeration, root by root.
	const roots = 20
	agree, naive, err := searchAblation(roots)
	if err != nil {
		return nil, err
	}
	t.Add("substitute k-mer search", "bounded search vs naive (k=3, m=25)",
		"roots agreeing / naive candidates per root", fmt.Sprintf("%d/%d / %d", agree, roots, naive))

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

// searchAblation compares subkmer.Find with subkmer.FindNaive on random
// k = 3 roots, where the naive 20^k enumeration is feasible, and fails on
// the first root whose m = 25 nearest lists differ. It reports the roots
// that agree and the candidates the naive enumeration visits per root —
// every k-mer that keeps or substitutes each position, computed from the
// expense rows — and no wall time, so the table is the same on every run.
func searchAblation(roots int) (agree int, perRoot int64, err error) {
	const k, m = 3, 25
	e := scoring.NewExpense(scoring.BLOSUM62)
	rng := rand.New(rand.NewSource(9))
	var naive int64
	for range roots {
		id := randomKmerID(rng, k)
		got, err := subkmer.Find(id, k, e, m)
		if err != nil {
			return 0, 0, err
		}
		want, err := subkmer.FindNaive(id, k, e, m)
		if err != nil {
			return 0, 0, err
		}
		if !slices.Equal(got, want) {
			return 0, 0, fmt.Errorf("ablations: the bounded search and the naive enumeration differ on k-mer %d", id)
		}
		leaves := int64(1)
		for _, b := range kmer.Decode(id, k) {
			leaves *= int64(1 + len(e.Rows[b]))
		}
		naive += leaves - 1 // the root itself is no candidate
		agree++
	}
	return agree, naive / int64(roots), nil
}

func randomKmerID(rng *rand.Rand, k int) kmer.ID {
	var id kmer.ID
	for i := 0; i < k; i++ {
		id = id*24 + kmer.ID(rng.Intn(20))
	}
	return id
}
