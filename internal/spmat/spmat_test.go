package spmat

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustFromTriples[T any](t testing.TB, rows, cols Index, ts []Triple[T], add func(T, T) T) *DCSC[T] {
	t.Helper()
	m, err := FromTriples(rows, cols, ts, add)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomTriples(rng *rand.Rand, rows, cols Index, nnz int) []Triple[float64] {
	seen := map[[2]Index]bool{}
	var ts []Triple[float64]
	for len(ts) < nnz {
		r, c := Index(rng.Int63n(int64(rows))), Index(rng.Int63n(int64(cols)))
		if seen[[2]Index{r, c}] {
			continue
		}
		seen[[2]Index{r, c}] = true
		ts = append(ts, Triple[float64]{Row: r, Col: c, Val: float64(rng.Intn(9) + 1)})
	}
	return ts
}

func toDense(m *DCSC[float64]) [][]float64 {
	d := make([][]float64, m.NumRows)
	for i := range d {
		d[i] = make([]float64, m.NumCols)
	}
	for _, t := range m.ToTriples() {
		d[t.Row][t.Col] = t.Val
	}
	return d
}

func denseMul(a, b [][]float64) [][]float64 {
	n, k, mcols := len(a), len(b), len(b[0])
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, mcols)
		for kk := 0; kk < k; kk++ {
			if a[i][kk] == 0 {
				continue
			}
			for j := 0; j < mcols; j++ {
				c[i][j] += a[i][kk] * b[kk][j]
			}
		}
	}
	return c
}

func TestFromTriplesBasic(t *testing.T) {
	ts := []Triple[float64]{{2, 1, 3.0}, {0, 0, 1.0}, {1, 1, 2.0}}
	m := mustFromTriples(t, 3, 2, ts, nil)
	if m.NNZ() != 3 || m.NonemptyCols() != 2 {
		t.Fatalf("nnz=%d cols=%d", m.NNZ(), m.NonemptyCols())
	}
	if v, ok := m.At(2, 1); !ok || v != 3.0 {
		t.Errorf("At(2,1) = %v,%v", v, ok)
	}
	if v, ok := m.At(0, 0); !ok || v != 1.0 {
		t.Errorf("At(0,0) = %v,%v", v, ok)
	}
	if _, ok := m.At(0, 1); ok {
		t.Error("At(0,1) should be empty")
	}
}

func TestFromTriplesAccumulates(t *testing.T) {
	ts := []Triple[float64]{{0, 0, 1}, {0, 0, 2}, {0, 0, 4}}
	m := mustFromTriples(t, 1, 1, ts, func(a, b float64) float64 { return a + b })
	if v, _ := m.At(0, 0); v != 7 {
		t.Errorf("accumulated = %v, want 7", v)
	}
}

func TestFromTriplesDuplicateReturnsError(t *testing.T) {
	_, err := FromTriples(3, 3, []Triple[float64]{{1, 2, 1}, {0, 0, 5}, {1, 2, 2}}, nil)
	if err == nil || !strings.Contains(err.Error(), "(1,2)") {
		t.Errorf("duplicate with nil add: err = %v, want one naming entry (1,2)", err)
	}
}

func TestFromTriplesOutOfRange(t *testing.T) {
	if _, err := FromTriples(2, 2, []Triple[float64]{{2, 0, 1}}, nil); err == nil {
		t.Error("row out of range should error")
	}
	if _, err := FromTriples(2, 2, []Triple[float64]{{0, -1, 1}}, nil); err == nil {
		t.Error("negative col should error")
	}
}

func TestRoundTripTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := randomTriples(rng, 20, 30, 80)
	m := mustFromTriples(t, 20, 30, ts, nil)
	back := m.ToTriples()
	if len(back) != len(ts) {
		t.Fatalf("round trip lost nonzeros: %d vs %d", len(back), len(ts))
	}
	m2 := mustFromTriples(t, 20, 30, back, nil)
	if !Equal(m, m2, func(a, b float64) bool { return a == b }) {
		t.Error("round trip produced different matrix")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := mustFromTriples(t, 15, 40, randomTriples(rng, 15, 40, 100), nil)
	tt := m.Transpose().Transpose()
	if !Equal(m, tt, func(a, b float64) bool { return a == b }) {
		t.Error("transpose is not an involution")
	}
	tr := m.Transpose()
	if tr.NumRows != 40 || tr.NumCols != 15 {
		t.Errorf("transpose dims %dx%d", tr.NumRows, tr.NumCols)
	}
	for _, trip := range m.ToTriples() {
		if v, ok := tr.At(trip.Col, trip.Row); !ok || v != trip.Val {
			t.Errorf("transpose missing (%d,%d)", trip.Col, trip.Row)
		}
	}
}

func TestHypersparseStorage(t *testing.T) {
	// A matrix with 2^40 columns but 3 nonzeros must store only 3 column ids:
	// this is the whole point of DCSC (paper Section IV-D).
	huge := Index(1) << 40
	ts := []Triple[int64]{{0, huge - 1, 1}, {5, 12345, 2}, {9, 0, 3}}
	m := mustFromTriples(t, 10, huge, ts, nil)
	if m.NonemptyCols() != 3 || len(m.CP) != 4 {
		t.Errorf("DCSC stores %d col entries for 3 nonzeros", m.NonemptyCols())
	}
	if v, ok := m.At(0, huge-1); !ok || v != 1 {
		t.Error("lookup in huge column space failed")
	}
}

func TestSpGEMMAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n, k, m := Index(rng.Intn(12)+1), Index(rng.Intn(12)+1), Index(rng.Intn(12)+1)
		a := mustFromTriples(t, n, k, randomTriples(rng, n, k, rng.Intn(int(n*k))), nil)
		b := mustFromTriples(t, k, m, randomTriples(rng, k, m, rng.Intn(int(k*m))), nil)
		want := denseMul(toDense(a), toDense(b))

		for name, mul := range map[string]func() (*DCSC[float64], Stats, error){
			"hash": func() (*DCSC[float64], Stats, error) { return SpGEMM(a, b, Arithmetic, SpGEMMOpts{}) },
			"heap": func() (*DCSC[float64], Stats, error) { return spGEMMHeap(a, b, Arithmetic) },
		} {
			c, _, err := mul()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := toDense(c)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("trial %d %s: C[%d][%d] = %v, want %v",
							trial, name, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// Property: the hash kernel and the heap reference (heap_test.go) agree
// exactly, structure included.
func TestHashHeapAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := Index(r.Intn(20)+1), Index(r.Intn(20)+1), Index(r.Intn(20)+1)
		a := mustFromTriples(t, n, k, randomTriples(r, n, k, r.Intn(int(n*k)+1)), nil)
		b := mustFromTriples(t, k, m, randomTriples(r, k, m, r.Intn(int(k*m)+1)), nil)
		c1, s1, err1 := SpGEMM(a, b, Arithmetic, SpGEMMOpts{})
		c2, s2, err2 := spGEMMHeap(a, b, Arithmetic)
		if err1 != nil || err2 != nil {
			return false
		}
		return s1.Flops == s2.Flops && Equal(c1, c2, func(x, y float64) bool { return x == y })
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSpGEMMDimensionMismatch(t *testing.T) {
	a := Empty[float64](3, 4)
	b := Empty[float64](5, 2)
	if _, _, err := SpGEMM(a, b, Arithmetic, SpGEMMOpts{}); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, _, err := spGEMMHeap(a, b, Arithmetic); err == nil {
		t.Error("dimension mismatch should error")
	}
}

// AAᵀ under the counting semiring yields shared-column counts: the overlap
// matrix of the paper with Bij = number of common k-mers.
func TestCountingSemiringOverlap(t *testing.T) {
	// Rows: sequences; cols: k-mers. Seq0 has kmers {0,1,2}, seq1 {1,2}, seq2 {5}.
	ts := []Triple[int32]{
		{0, 0, 1}, {0, 1, 1}, {0, 2, 1},
		{1, 1, 1}, {1, 2, 1},
		{2, 5, 1},
	}
	a := mustFromTriples(t, 3, 6, ts, nil)
	b, _, err := SpGEMM(a, a.Transpose(), Counting[int32, int32](), SpGEMMOpts{})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		i, j Index
		want int64
	}{{0, 0, 3}, {0, 1, 2}, {1, 0, 2}, {1, 1, 2}, {2, 2, 1}}
	for _, c := range checks {
		if v, ok := b.At(c.i, c.j); !ok || v != c.want {
			t.Errorf("B[%d][%d] = %v,%v want %d", c.i, c.j, v, ok, c.want)
		}
	}
	if _, ok := b.At(0, 2); ok {
		t.Error("B[0][2] should be structurally zero (no shared k-mers)")
	}
	// Symmetry of AAᵀ.
	for _, trip := range b.ToTriples() {
		if v, ok := b.At(trip.Col, trip.Row); !ok || v != trip.Val {
			t.Errorf("AAᵀ not symmetric at (%d,%d)", trip.Row, trip.Col)
		}
	}
}

// A custom min-plus (tropical) semiring exercises non-arithmetic Add.
func TestTropicalSemiring(t *testing.T) {
	tropical := Semiring[float64, float64, float64]{
		Multiply: func(_, _ Index, a, b float64) float64 { return a + b },
		Add: func(x, y float64) float64 {
			if x < y {
				return x
			}
			return y
		},
	}
	// Path weights: A is 2x2 adjacency, A^2 gives shortest 2-hop paths.
	a := mustFromTriples(t, 2, 2, []Triple[float64]{
		{0, 0, 1}, {0, 1, 5}, {1, 0, 2}, {1, 1, 1},
	}, nil)
	c, _, err := SpGEMM(a, a, tropical, SpGEMMOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// c[0][0] = min(1+1, 5+2) = 2
	if v, _ := c.At(0, 0); v != 2 {
		t.Errorf("tropical c[0][0] = %v, want 2", v)
	}
	// c[0][1] = min(1+5, 5+1) = 6
	if v, _ := c.At(0, 1); v != 6 {
		t.Errorf("tropical c[0][1] = %v, want 6", v)
	}
}

func TestPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := mustFromTriples(t, 10, 10, randomTriples(rng, 10, 10, 40), nil)
	p := m.Prune(func(r, c Index, v float64) bool { return v > 4 })
	for _, trip := range p.ToTriples() {
		if trip.Val <= 4 {
			t.Errorf("prune kept %v", trip.Val)
		}
	}
	total := 0
	for _, trip := range m.ToTriples() {
		if trip.Val > 4 {
			total++
		}
	}
	if p.NNZ() != total {
		t.Errorf("prune kept %d, want %d", p.NNZ(), total)
	}
	// Pruned matrix has no empty columns materialized.
	for c := range p.JC {
		if p.CP[c+1] == p.CP[c] {
			t.Error("prune left an empty column slot")
		}
	}
}

func TestApply(t *testing.T) {
	m := mustFromTriples(t, 2, 2, []Triple[float64]{{0, 0, 2}, {1, 1, 3}}, nil)
	sq := Apply(m, func(r, c Index, v float64) int64 { return int64(v * v) })
	if v, _ := sq.At(0, 0); v != 4 {
		t.Errorf("Apply = %v", v)
	}
	if v, _ := sq.At(1, 1); v != 9 {
		t.Errorf("Apply = %v", v)
	}
}

func TestEWiseAdd(t *testing.T) {
	a := mustFromTriples(t, 2, 2, []Triple[float64]{{0, 0, 1}, {0, 1, 2}}, nil)
	b := mustFromTriples(t, 2, 2, []Triple[float64]{{0, 0, 10}, {1, 0, 3}}, nil)
	c, err := EWiseAdd(a, b, func(x, y float64) float64 { return x + y })
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c.At(0, 0); v != 11 {
		t.Errorf("EWiseAdd merge = %v", v)
	}
	if v, _ := c.At(0, 1); v != 2 {
		t.Errorf("EWiseAdd left-only = %v", v)
	}
	if v, _ := c.At(1, 0); v != 3 {
		t.Errorf("EWiseAdd right-only = %v", v)
	}
	if c.NNZ() != 3 {
		t.Errorf("EWiseAdd nnz = %d", c.NNZ())
	}
	if _, err := EWiseAdd(a, Empty[float64](3, 3), nil); err == nil {
		t.Error("shape mismatch should error")
	}
}

// EWiseAdd of a matrix and its transpose symmetrizes structure.
func TestSymmetrizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := Index(r.Intn(15) + 1)
		m := mustFromTriples(t, n, n, randomTriples(r, n, n, r.Intn(int(n*n)+1)), nil)
		sym, err := EWiseAdd(m, m.Transpose(), func(x, y float64) float64 { return x + y })
		if err != nil {
			return false
		}
		for _, trip := range sym.ToTriples() {
			v, ok := sym.At(trip.Col, trip.Row)
			if !ok || v != trip.Val {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the chunked parallel SpGEMM is bit-identical — structure, values
// and Flops — to the serial heap reference (heap_test.go) for any thread
// count, on randomized shapes including hypersparse and empty ones.
func TestSpGEMMParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, m := Index(r.Intn(30)+1), Index(r.Intn(30)+1), Index(r.Intn(30)+1)
		a := mustFromTriples(t, n, k, randomTriples(r, n, k, r.Intn(int(n*k)+1)), nil)
		b := mustFromTriples(t, k, m, randomTriples(r, k, m, r.Intn(int(k*m)+1)), nil)
		ref, refStats, err := spGEMMHeap(a, b, Arithmetic)
		if err != nil {
			return false
		}
		for _, threads := range []int{1, 2, 8} {
			got, stats, err := SpGEMM(a, b, Arithmetic, SpGEMMOpts{Threads: threads})
			if err != nil {
				return false
			}
			if stats.Flops != refStats.Flops {
				t.Logf("threads=%d: flops %d vs %d", threads, stats.Flops, refStats.Flops)
				return false
			}
			if !Equal(ref, got, func(x, y float64) bool { return x == y }) {
				t.Logf("threads=%d: matrices differ", threads)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The parallel path must also honor non-commutative-looking semirings the
// pipeline uses (overlap merging keeps ordered seed lists), so check a
// semiring whose Add depends on evaluation order within a column. Chunking
// never splits a column, so order within a column is unchanged.
func TestSpGEMMParallelCountingSemiring(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := randomTriples(rng, 40, 60, 300)
	ints := make([]Triple[int32], len(rows))
	for i, tr := range rows {
		ints[i] = Triple[int32]{Row: tr.Row, Col: tr.Col, Val: int32(tr.Val)}
	}
	a := mustFromTriples(t, 40, 60, ints, nil)
	at := a.Transpose()
	ref, _, err := SpGEMM(a, at, Counting[int32, int32](), SpGEMMOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 8} {
		got, _, err := SpGEMM(a, at, Counting[int32, int32](), SpGEMMOpts{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(ref, got, func(x, y int64) bool { return x == y }) {
			t.Errorf("threads=%d: counting overlap differs from serial", threads)
		}
	}
}

func TestSpGEMMParallelEmptyOperands(t *testing.T) {
	a := Empty[float64](4, 5)
	b := Empty[float64](5, 3)
	c, stats, err := SpGEMM(a, b, Arithmetic, SpGEMMOpts{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 || stats.Flops != 0 || c.NumRows != 4 || c.NumCols != 3 {
		t.Errorf("empty product: nnz=%d flops=%d dims %dx%d", c.NNZ(), stats.Flops, c.NumRows, c.NumCols)
	}
	if _, _, err := SpGEMM(a, Empty[float64](9, 2), Arithmetic, SpGEMMOpts{Threads: 2}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func benchMatrices(n, k, m Index, nnz int) (*DCSC[float64], *DCSC[float64]) {
	rng := rand.New(rand.NewSource(8))
	a, _ := FromTriples(n, k, randomTriples(rng, n, k, nnz), nil)
	b, _ := FromTriples(k, m, randomTriples(rng, k, m, nnz), nil)
	return a, b
}

func BenchmarkSpGEMMHash(b *testing.B) {
	x, y := benchMatrices(500, 500, 500, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SpGEMM(x, y, Arithmetic, SpGEMMOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpGEMMHeap(b *testing.B) {
	x, y := benchMatrices(500, 500, 500, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := spGEMMHeap(x, y, Arithmetic); err != nil {
			b.Fatal(err)
		}
	}
}

// kmerLikeTriples is the shape matrix assembly sees in the pipeline: seqs
// rows in row-major order, each holding perRow k-mers drawn from a pool
// scattered over 24^6, so that a k-mer is shared by about 15 sequences.
func kmerLikeTriples(seqs, perRow int) (Index, Index, []Triple[int32]) {
	rng := rand.New(rand.NewSource(53))
	cols := pow24(6)
	pool := make([]Index, seqs*perRow/15+1)
	for i := range pool {
		pool[i] = rng.Int63n(cols)
	}
	ts := make([]Triple[int32], 0, seqs*perRow)
	for r := 0; r < seqs; r++ {
		for p := 0; p < perRow; p++ {
			ts = append(ts, Triple[int32]{Row: Index(r), Col: pool[rng.Intn(len(pool))], Val: int32(p)})
		}
	}
	return Index(seqs), cols, ts
}

func keepFirst(x, _ int32) int32 { return x }

// TestFromTriplesAllocationStable bounds FromTriples at a constant number
// of allocations — the sort scratch, the DCSC and its four arrays, each
// sized once, with slack for a stray runtime allocation — however many
// triples it is handed.
func TestFromTriplesAllocationStable(t *testing.T) {
	for _, seqs := range []int{20, 400} {
		rows, cols, ts := kmerLikeTriples(seqs, 50)
		work := make([]Triple[int32], len(ts))
		got := testing.AllocsPerRun(5, func() {
			copy(work, ts)
			if _, err := FromTriples(rows, cols, work, keepFirst); err != nil {
				t.Fatal(err)
			}
		})
		if got > 8 {
			t.Errorf("%d triples: %.0f allocations per FromTriples, want <= 8", len(ts), got)
		}
	}
}

func BenchmarkFromTriples(b *testing.B) {
	rows, cols, ts := kmerLikeTriples(2000, 150)
	work := make([]Triple[int32], len(ts))
	b.SetBytes(int64(len(ts)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, ts)
		if _, err := FromTriples(rows, cols, work, keepFirst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranspose(b *testing.B) {
	rows, cols, ts := kmerLikeTriples(2000, 150)
	m, err := FromTriples(rows, cols, ts, keepFirst)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(m.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.Transpose()
	}
}

func BenchmarkMergeAdd(b *testing.B) {
	// Four "stage products": the k-mer matrix dealt by k-mer range, times
	// its transpose, as SUMMA on a 4-wide grid would form them.
	rows, cols, ts := kmerLikeTriples(2000, 150)
	var parts []*DCSC[int64]
	nnz := 0
	for s := Index(0); s < 4; s++ {
		var mine []Triple[int32]
		for _, t := range ts {
			if t.Col*4/cols == s {
				mine = append(mine, t)
			}
		}
		a, err := FromTriples(rows, cols, mine, keepFirst)
		if err != nil {
			b.Fatal(err)
		}
		p, _, err := SpGEMM(a, a.Transpose(), Counting[int32, int32](), SpGEMMOpts{})
		if err != nil {
			b.Fatal(err)
		}
		parts = append(parts, p)
		nnz += p.NNZ()
	}
	b.SetBytes(int64(nnz))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeAdd(parts, func(x, y int64) int64 { return x + y }); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSink any

// ColRange panels must cover exactly the requested columns, preserve the
// matrix shape, and concatenate back to the original across any ragged
// tiling — including empty panels and a trailing short block.
func TestColRangePanels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := mustFromTriples(t, 40, 37, randomTriples(rng, 40, 37, 300), nil)

	// Full range is the identity.
	full := m.ColRange(0, m.NumCols)
	if !Equal(m, full, func(a, b float64) bool { return a == b }) {
		t.Fatal("full-range panel differs from original")
	}
	// Empty panel: no columns, shape preserved, usable.
	empty := m.ColRange(10, 10)
	if empty.NNZ() != 0 || empty.NumRows != m.NumRows || empty.NumCols != m.NumCols {
		t.Fatalf("empty panel: %d nnz, %dx%d", empty.NNZ(), empty.NumRows, empty.NumCols)
	}
	if got := empty.ToTriples(); len(got) != 0 {
		t.Fatalf("empty panel yields triples: %v", got)
	}
	// Out-of-range bounds clamp to nothing.
	if p := m.ColRange(37, 99); p.NNZ() != 0 {
		t.Fatalf("past-the-end panel has %d nnz", p.NNZ())
	}

	// Ragged tilings (trailing short block) concatenate to the original.
	for _, width := range []Index{1, 5, 12, 36, 37, 50} {
		var concat []Triple[float64]
		for lo := Index(0); lo < m.NumCols; lo += width {
			hi := lo + width
			if hi > m.NumCols {
				hi = m.NumCols
			}
			panel := m.ColRange(lo, hi)
			for _, tr := range panel.ToTriples() {
				if tr.Col < lo || tr.Col >= hi {
					t.Fatalf("width=%d: column %d outside [%d,%d)", width, tr.Col, lo, hi)
				}
			}
			concat = append(concat, panel.ToTriples()...)
		}
		want := m.ToTriples()
		if len(concat) != len(want) {
			t.Fatalf("width=%d: %d triples, want %d", width, len(concat), len(want))
		}
		for i := range want {
			if concat[i] != want[i] {
				t.Fatalf("width=%d: triple %d: %+v != %+v", width, i, concat[i], want[i])
			}
		}
	}
}

// A ColRange panel of a product must be usable as an SpGEMM operand and
// reproduce the corresponding slice of the full product (the blocked SUMMA
// broadcast path relies on this).
func TestColRangeAsOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := mustFromTriples(t, 25, 30, randomTriples(rng, 25, 30, 200), nil)
	b := mustFromTriples(t, 30, 22, randomTriples(rng, 30, 22, 200), nil)
	full, _, err := SpGEMM(a, b, Arithmetic, SpGEMMOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rng2 := range [][2]Index{{0, 7}, {7, 22}, {21, 22}, {0, 22}} {
		part, _, err := SpGEMM(a, b.ColRange(rng2[0], rng2[1]), Arithmetic, SpGEMMOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(part, full.ColRange(rng2[0], rng2[1]), func(x, y float64) bool { return x == y }) {
			t.Fatalf("product of panel [%d,%d) differs from panel of product", rng2[0], rng2[1])
		}
	}
}
