// Package mcl implements Markov Clustering (van Dongen 2000) on the protein
// similarity graph — the role HipMCL (paper reference [9]) plays in the
// paper's relevance evaluation: the PSG produced by PASTIS or a baseline
// tool is clustered and the clusters are compared against ground-truth
// protein families.
//
// The implementation follows the standard alternation of expansion (matrix
// squaring over the arithmetic semiring), inflation (entrywise power and
// column re-normalization), and pruning of small entries, iterated until the
// matrix is numerically stable. Clusters are read off as weakly connected
// components of the thresholded stationary matrix.
package mcl

import (
	"fmt"
	"math"

	"repro/internal/cc"
	"repro/internal/spmat"
)

// Config controls the MCL iteration.
type Config struct {
	Inflation     float64 // r; 2.0 is the common default
	PruneBelow    float64 // drop entries below this after each step
	MaxIterations int
	Tolerance     float64 // convergence: max |M_t - M_{t-1}| entry change
}

// DefaultConfig matches the conventional MCL parameters.
func DefaultConfig() Config {
	return Config{Inflation: 2.0, PruneBelow: 1e-4, MaxIterations: 60, Tolerance: 1e-6}
}

// Edge is one weighted undirected edge of the input graph.
type Edge struct {
	R, C   int64
	Weight float64
}

// Cluster runs MCL on an n-node graph and returns the clusters as sorted
// member lists (deterministic order).
func Cluster(n int, edges []Edge, cfg Config) ([][]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mcl: n=%d", n)
	}
	if cfg.Inflation <= 1 {
		return nil, fmt.Errorf("mcl: inflation must exceed 1, got %f", cfg.Inflation)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 60
	}

	// Build the symmetric adjacency with self loops (standard MCL practice:
	// self loops damp oscillation), then column-normalize.
	ts := make([]spmat.Triple[float64], 0, 2*len(edges)+n)
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
	for i := 0; i < n; i++ {
		ts = append(ts, spmat.Triple[float64]{Row: int64(i), Col: int64(i), Val: 1})
	}
	m, err := spmat.FromTriples(int64(n), int64(n), ts, func(a, b float64) float64 { return a + b })
	if err != nil {
		return nil, err
	}
	m = normalizeColumns(m)

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		// Expansion.
		sq, _, err := spmat.SpGEMM(m, m, spmat.Arithmetic, spmat.SpGEMMOpts{})
		if err != nil {
			return nil, err
		}
		// Inflation + pruning + normalization.
		infl := spmat.Apply(sq, func(r, c spmat.Index, v float64) float64 {
			return math.Pow(v, cfg.Inflation)
		})
		infl = infl.Prune(func(r, c spmat.Index, v float64) bool { return v >= cfg.PruneBelow })
		next := normalizeColumns(infl)

		if converged(m, next, cfg.Tolerance) {
			m = next
			break
		}
		m = next
	}

	// Read clusters as weakly connected components of the support.
	var rows, cols []int64
	for _, t := range m.ToTriples() {
		if t.Val > cfg.PruneBelow && t.Row != t.Col {
			rows = append(rows, t.Row)
			cols = append(cols, t.Col)
		}
	}
	return cc.FromEdges(n, rows, cols), nil
}

func normalizeColumns(m *spmat.DCSC[float64]) *spmat.DCSC[float64] {
	sums := map[spmat.Index]float64{}
	for _, t := range m.ToTriples() {
		sums[t.Col] += t.Val
	}
	return spmat.Apply(m, func(r, c spmat.Index, v float64) float64 {
		return v / sums[c]
	})
}

// converged reports whether the largest entrywise difference between two
// stochastic matrices is below tol (structure differences count as changes).
func converged(a, b *spmat.DCSC[float64], tol float64) bool {
	diff := map[[2]spmat.Index]float64{}
	for _, t := range a.ToTriples() {
		diff[[2]spmat.Index{t.Row, t.Col}] = t.Val
	}
	for _, t := range b.ToTriples() {
		diff[[2]spmat.Index{t.Row, t.Col}] -= t.Val
	}
	for _, d := range diff {
		if math.Abs(d) > tol {
			return false
		}
	}
	return true
}
