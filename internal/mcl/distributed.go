package mcl

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cc"
	"repro/internal/dmat"
	"repro/internal/spmat"
	"repro/internal/wire"
)

// ClusterDistributed runs Markov Clustering on the 2D process grid, the way
// HipMCL (Azad et al. 2018) runs on CombBLAS — the "enhanced pipeline with
// clustering" the paper lists as future work. Expansion is the distributed
// SUMMA SpGEMM; column normalization reduces column sums along grid columns;
// inflation and pruning are local. Each rank contributes its share of the
// graph's edges (duplicates across ranks are summed); the clustering is
// returned on grid rank 0 (nil elsewhere). Collective over the grid.
func ClusterDistributed(g *dmat.Grid, n int, edges []Edge, cfg Config) ([][]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mcl: n=%d", n)
	}
	if cfg.Inflation <= 1 {
		return nil, fmt.Errorf("mcl: inflation must exceed 1, got %f", cfg.Inflation)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 60
	}
	// Declare the intra-rank thread count for the duration of the
	// clustering: the expansion SpGEMM multiplies column chunks concurrently
	// and the virtual clock charges its flops (and the elementwise
	// inflation/pruning passes) as thread-parallel work.
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	clock := g.Comm.Clock()
	prevThreads := clock.Threads()
	clock.SetThreads(threads)
	defer clock.SetThreads(prevThreads)
	gemmOpts := dmat.DefaultSpGEMMOpts()
	gemmOpts.Threads = threads

	// Assemble the symmetric adjacency with self loops. Rank 0 contributes
	// the loops so they are added exactly once.
	var ts []spmat.Triple[float64]
	for _, e := range edges {
		if e.R < 0 || e.R >= int64(n) || e.C < 0 || e.C >= int64(n) {
			return nil, fmt.Errorf("mcl: edge (%d,%d) outside %d nodes", e.R, e.C, n)
		}
		if e.Weight <= 0 || e.R == e.C {
			continue
		}
		ts = append(ts, spmat.Triple[float64]{Row: e.R, Col: e.C, Val: e.Weight})
		ts = append(ts, spmat.Triple[float64]{Row: e.C, Col: e.R, Val: e.Weight})
	}
	if g.Comm.Rank() == 0 {
		for i := 0; i < n; i++ {
			ts = append(ts, spmat.Triple[float64]{Row: int64(i), Col: int64(i), Val: 1})
		}
	}
	raw, err := dmat.NewFromTriples(g, int64(n), int64(n), ts, dmat.Float64Codec,
		func(a, b float64) float64 { return a + b })
	if err != nil {
		return nil, err
	}
	m, err := normalizeColumnsDist(raw)
	raw.Release()
	if err != nil {
		return nil, err
	}

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		sq, err := dmat.SpGEMM(m, m, spmat.Arithmetic, dmat.Float64Codec, gemmOpts)
		if err != nil {
			return nil, err
		}
		infl := sq.Map(func(v float64) float64 { return math.Pow(v, cfg.Inflation) })
		sq.Release()
		pruned := infl.Prune(func(r, c spmat.Index, v float64) bool { return v >= cfg.PruneBelow })
		infl.Release()
		next, err := normalizeColumnsDist(pruned)
		pruned.Release()
		if err != nil {
			return nil, err
		}

		// Convergence: the largest entrywise change across the grid.
		delta := localDelta(m, next)
		// Encode the float via its bits to reuse the integer max-reduce.
		worst, err := g.Comm.TryAllreduceInt64("max", int64(math.Float64bits(delta)))
		if err != nil {
			return nil, err
		}
		// Each iteration retires its predecessor so the live-bytes ledger
		// tracks one resident matrix, not sixty.
		m.Release()
		m = next
		if math.Float64frombits(uint64(worst)) <= cfg.Tolerance {
			break
		}
	}

	// Gather the stationary support on rank 0 and read off components.
	triples, err := m.GatherTriples()
	if err != nil {
		return nil, err
	}
	if g.Comm.Rank() != 0 {
		return nil, nil
	}
	var rows, cols []int64
	for _, t := range triples {
		if t.Val > cfg.PruneBelow && t.Row != t.Col {
			rows = append(rows, t.Row)
			cols = append(cols, t.Col)
		}
	}
	return cc.FromEdges(n, rows, cols), nil
}

// normalizeColumnsDist makes the matrix column-stochastic: column sums are
// reduced along each grid column (a column of the matrix lives entirely
// within one grid column), then divided locally.
func normalizeColumnsDist(m *dmat.Mat[float64]) (*dmat.Mat[float64], error) {
	colOff := m.ColOffset()
	local := map[spmat.Index]float64{}
	for _, t := range m.Local.ToTriples() {
		local[t.Col+colOff] += t.Val
	}
	// Share sums within the grid column (deterministic serialization).
	cols := make([]spmat.Index, 0, len(local))
	for col := range local {
		cols = append(cols, col)
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
	buf := make([]byte, 0, len(cols)*16)
	for _, col := range cols {
		buf = wire.AppendU64(buf, uint64(col))
		buf = wire.AppendF64(buf, local[col])
	}
	parts, err := m.Grid.ColComm.TryAllgather(buf)
	if err != nil {
		return nil, err
	}
	sums := map[spmat.Index]float64{}
	for src, part := range parts {
		add := func(col, bits uint64) { sums[spmat.Index(col)] += math.Float64frombits(bits) }
		if err := wire.Pairs(part, add); err != nil {
			return nil, fmt.Errorf("mcl: column sums from grid-column rank %d: %w", src, err)
		}
	}
	return m.Map2(func(r, c spmat.Index, v float64) float64 {
		return v / sums[c]
	}), nil
}

// localDelta returns the largest entrywise difference between two
// identically-distributed matrices on this rank (structure changes count).
func localDelta(a, b *dmat.Mat[float64]) float64 {
	diff := map[[2]spmat.Index]float64{}
	for _, t := range a.Local.ToTriples() {
		diff[[2]spmat.Index{t.Row, t.Col}] = t.Val
	}
	for _, t := range b.Local.ToTriples() {
		diff[[2]spmat.Index{t.Row, t.Col}] -= t.Val
	}
	worst := 0.0
	for _, d := range diff {
		if math.Abs(d) > worst {
			worst = math.Abs(d)
		}
	}
	return worst
}
