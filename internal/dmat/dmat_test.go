package dmat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/wire"
)

// Float64Codec is the value codec of this package's test matrices.
var Float64Codec = Codec[float64]{
	Append: wire.AppendF64,
	Decode: func(src []byte) (float64, int) { return math.Float64frombits(wire.U64(src)), 8 },
	Width:  8,
}

// panelLoop is the blocked multiply every caller of SpGEMMPanel runs: panel
// k = 0..blocks-1 in order, each handed to yield with this rank's
// block-local column bounds before the next panel's stages begin.
func panelLoop(a, b *Mat[float64], sr spmat.Semiring[float64, float64, float64], opts SpGEMMOpts, blocks int,
	yield func(panel int, lo, hi spmat.Index, p *Mat[float64]) error) error {

	for k := 0; k < blocks; k++ {
		lo, hi := b.PanelRange(blocks, k)
		p, err := SpGEMMPanel(a, b, sr, Float64Codec, opts, blocks, k)
		if err != nil {
			return err
		}
		if err := yield(k, lo, hi, p); err != nil {
			return err
		}
	}
	return nil
}

// runGrid executes fn on a fresh p-rank cluster (p must be square).
func runGrid(t testing.TB, p int, fn func(g *Grid) error) mpi.Summary {
	t.Helper()
	cl := mpi.NewCluster(p, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		g, err := NewGrid(c)
		if err != nil {
			return err
		}
		return fn(g)
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := cl.Summary()
	return sum
}

func randomTriples(rng *rand.Rand, rows, cols spmat.Index, nnz int) []spmat.Triple[float64] {
	seen := map[[2]spmat.Index]bool{}
	var ts []spmat.Triple[float64]
	for len(ts) < nnz {
		r, c := spmat.Index(rng.Int63n(int64(rows))), spmat.Index(rng.Int63n(int64(cols)))
		if seen[[2]spmat.Index{r, c}] {
			continue
		}
		seen[[2]spmat.Index{r, c}] = true
		ts = append(ts, spmat.Triple[float64]{Row: r, Col: c, Val: float64(rng.Intn(9) + 1)})
	}
	return ts
}

// scatter deals triples round-robin to ranks, mimicking arbitrary origin.
func scatter(ts []spmat.Triple[float64], rank, p int) []spmat.Triple[float64] {
	var mine []spmat.Triple[float64]
	for i, t := range ts {
		if i%p == rank {
			mine = append(mine, t)
		}
	}
	return mine
}

func sortTriples(ts []spmat.Triple[float64]) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Col != ts[j].Col {
			return ts[i].Col < ts[j].Col
		}
		return ts[i].Row < ts[j].Row
	})
}

func TestGridRequiresSquare(t *testing.T) {
	cl := mpi.NewCluster(3, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		_, err := NewGrid(c)
		return err
	})
	if err == nil {
		t.Fatal("3 ranks should not form a grid")
	}
}

func TestBlockRangeCoversAndBalances(t *testing.T) {
	for _, n := range []spmat.Index{1, 7, 100, 191102976} {
		for _, q := range []int{1, 2, 3, 7} {
			var prev spmat.Index
			for i := 0; i < q; i++ {
				lo, hi := BlockRange(n, q, i)
				if lo != prev {
					t.Fatalf("n=%d q=%d block %d gap: lo=%d prev=%d", n, q, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("negative block size")
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d q=%d: blocks cover %d", n, q, prev)
			}
		}
	}
}

func TestBlockOf(t *testing.T) {
	n := spmat.Index(100)
	for q := 1; q <= 9; q++ {
		for x := spmat.Index(0); x < n; x++ {
			i := BlockOf(x, n, q)
			lo, hi := BlockRange(n, q, i)
			if x < lo || x >= hi {
				t.Fatalf("BlockOf(%d, %d, %d) = %d covers [%d,%d)", x, n, q, i, lo, hi)
			}
		}
	}
}

func TestNewFromTriplesAndGather(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := randomTriples(rng, 50, 70, 300)
	for _, p := range []int{1, 4, 9} {
		runGrid(t, p, func(g *Grid) error {
			mine := scatter(want, g.Comm.Rank(), p)
			m, err := NewFromTriples(g, 50, 70, mine, Float64Codec, nil)
			if err != nil {
				return err
			}
			if nnz, err := m.TryNNZ(); err != nil || nnz != 300 {
				return fmt.Errorf("NNZ = %d (%v), want 300", nnz, err)
			}
			got, err := m.GatherTriples()
			if err != nil {
				return err
			}
			if g.Comm.Rank() != 0 {
				if got != nil {
					return fmt.Errorf("non-root gathered data")
				}
				return nil
			}
			if len(got) != len(want) {
				return fmt.Errorf("gathered %d, want %d", len(got), len(want))
			}
			w := append([]spmat.Triple[float64](nil), want...)
			sortTriples(w)
			sortTriples(got)
			for i := range w {
				if got[i] != w[i] {
					return fmt.Errorf("triple %d: %+v != %+v", i, got[i], w[i])
				}
			}
			return nil
		})
	}
}

func TestNewFromTriplesOutOfRange(t *testing.T) {
	cl := mpi.NewCluster(1, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		g, err := NewGrid(c)
		if err != nil {
			return err
		}
		_, err = NewFromTriples(g, 5, 5,
			[]spmat.Triple[float64]{{Row: 9, Col: 0, Val: 1}}, Float64Codec, nil)
		return err
	})
	if err == nil {
		t.Fatal("out-of-range triple should fail")
	}
}

// Distributed SpGEMM must equal serial SpGEMM for every grid size; this is
// the core correctness statement for the SUMMA implementation.
func TestSpGEMMMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, k, mcols := spmat.Index(40), spmat.Index(60), spmat.Index(30)
	aT := randomTriples(rng, n, k, 250)
	bT := randomTriples(rng, k, mcols, 250)

	aLoc, err := spmat.FromTriples(n, k, aT, nil)
	if err != nil {
		t.Fatal(err)
	}
	bLoc, err := spmat.FromTriples(k, mcols, bT, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantMat, _, err := spmat.SpGEMM(aLoc, bLoc, spmat.Arithmetic, spmat.SpGEMMOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := wantMat.ToTriples()
	sortTriples(want)

	for _, p := range []int{1, 4, 9, 16} {
		runGrid(t, p, func(g *Grid) error {
			a, err := NewFromTriples(g, n, k, scatter(aT, g.Comm.Rank(), p), Float64Codec, nil)
			if err != nil {
				return err
			}
			b, err := NewFromTriples(g, k, mcols, scatter(bT, g.Comm.Rank(), p), Float64Codec, nil)
			if err != nil {
				return err
			}
			c, err := SpGEMM(a, b, spmat.Arithmetic, Float64Codec, DefaultSpGEMMOpts())
			if err != nil {
				return err
			}
			got, err := c.GatherTriples()
			if err != nil {
				return err
			}
			if g.Comm.Rank() != 0 {
				return nil
			}
			sortTriples(got)
			if len(got) != len(want) {
				return fmt.Errorf("p=%d: %d nonzeros, want %d", p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("p=%d: triple %d: %+v != %+v", p, i, got[i], want[i])
				}
			}
			return nil
		})
	}
}

func TestSpGEMMDimMismatch(t *testing.T) {
	cl := mpi.NewCluster(1, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		g, err := NewGrid(c)
		if err != nil {
			return err
		}
		a, _ := NewFromTriples(g, 5, 6, nil, Float64Codec, nil)
		b, _ := NewFromTriples(g, 7, 5, nil, Float64Codec, nil)
		_, err = SpGEMM(a, b, spmat.Arithmetic, Float64Codec, DefaultSpGEMMOpts())
		return err
	})
	if err == nil {
		t.Fatal("inner dimension mismatch should fail")
	}
}

func TestDistributedTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ts := randomTriples(rng, 33, 45, 200)
	for _, p := range []int{1, 4, 9} {
		runGrid(t, p, func(g *Grid) error {
			m, err := NewFromTriples(g, 33, 45, scatter(ts, g.Comm.Rank(), p), Float64Codec, nil)
			if err != nil {
				return err
			}
			tr, err := m.Transpose()
			if err != nil {
				return err
			}
			if tr.Rows != 45 || tr.Cols != 33 {
				return fmt.Errorf("transpose dims %dx%d", tr.Rows, tr.Cols)
			}
			got, err := tr.GatherTriples()
			if err != nil {
				return err
			}
			if g.Comm.Rank() != 0 {
				return nil
			}
			if len(got) != len(ts) {
				return fmt.Errorf("transpose has %d nnz, want %d", len(got), len(ts))
			}
			want := make([]spmat.Triple[float64], len(ts))
			for i, t := range ts {
				want[i] = spmat.Triple[float64]{Row: t.Col, Col: t.Row, Val: t.Val}
			}
			sortTriples(want)
			sortTriples(got)
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("transpose triple %d: %+v != %+v", i, got[i], want[i])
				}
			}
			return nil
		})
	}
}

func TestSymmetrize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ts := randomTriples(rng, 20, 20, 60)
	runGrid(t, 4, func(g *Grid) error {
		m, err := NewFromTriples(g, 20, 20, scatter(ts, g.Comm.Rank(), 4), Float64Codec, nil)
		if err != nil {
			return err
		}
		// A + Aᵀ the way core's sweep symmetrizes: Transpose, then EWiseAdd.
		mt, err := m.Transpose()
		if err != nil {
			return err
		}
		sym, err := EWiseAdd(m, mt, func(a, b float64) float64 { return a + b })
		if err != nil {
			return err
		}
		got, err := sym.GatherTriples()
		if err != nil {
			return err
		}
		if g.Comm.Rank() != 0 {
			return nil
		}
		byPos := map[[2]spmat.Index]float64{}
		for _, tr := range got {
			byPos[[2]spmat.Index{tr.Row, tr.Col}] = tr.Val
		}
		for pos, v := range byPos {
			if byPos[[2]spmat.Index{pos[1], pos[0]}] != v {
				return fmt.Errorf("not symmetric at %v", pos)
			}
		}
		return nil
	})
}

func TestPruneGlobalIndices(t *testing.T) {
	ts := []spmat.Triple[float64]{
		{Row: 0, Col: 0, Val: 1}, {Row: 9, Col: 9, Val: 2},
		{Row: 3, Col: 7, Val: 3}, {Row: 7, Col: 3, Val: 4},
	}
	runGrid(t, 4, func(g *Grid) error {
		m, err := NewFromTriples(g, 10, 10, scatter(ts, g.Comm.Rank(), 4), Float64Codec, nil)
		if err != nil {
			return err
		}
		// Keep strictly-upper-triangular entries (global indices!).
		up := m.Prune(func(r, c spmat.Index, v float64) bool { return r < c })
		got, err := up.GatherTriples()
		if err != nil {
			return err
		}
		if g.Comm.Rank() != 0 {
			return nil
		}
		if len(got) != 1 || got[0].Row != 3 || got[0].Col != 7 {
			return fmt.Errorf("prune kept %+v", got)
		}
		return nil
	})
}

// The distributed result must be identical for every process count:
// the paper's reproducibility property (Section V).
func TestProcessCountOblivious(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := spmat.Index(30)
	aT := randomTriples(rng, n, n, 150)

	var reference []spmat.Triple[float64]
	for _, p := range []int{1, 4, 9, 25} {
		var gathered []spmat.Triple[float64]
		runGrid(t, p, func(g *Grid) error {
			a, err := NewFromTriples(g, n, n, scatter(aT, g.Comm.Rank(), p), Float64Codec, nil)
			if err != nil {
				return err
			}
			at, err := a.Transpose()
			if err != nil {
				return err
			}
			b, err := SpGEMM(a, at, spmat.Arithmetic, Float64Codec, DefaultSpGEMMOpts())
			if err != nil {
				return err
			}
			all, err := b.GatherTriples()
			if err != nil {
				return err
			}
			if g.Comm.Rank() == 0 {
				gathered = all
			}
			return nil
		})
		sortTriples(gathered)
		if reference == nil {
			reference = gathered
			continue
		}
		if len(gathered) != len(reference) {
			t.Fatalf("p=%d: %d nnz vs reference %d", p, len(gathered), len(reference))
		}
		for i := range reference {
			if gathered[i] != reference[i] {
				t.Fatalf("p=%d: triple %d differs: %+v vs %+v",
					p, i, gathered[i], reference[i])
			}
		}
	}
}

// More ranks must increase total communication volume and per-run virtual
// time must remain deterministic.
func TestSpGEMMVirtualTimeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := spmat.Index(64)
	aT := randomTriples(rng, n, n, 400)
	timeFor := func(p int) float64 {
		sum := runGrid(t, p, func(g *Grid) error {
			a, err := NewFromTriples(g, n, n, scatter(aT, g.Comm.Rank(), p), Float64Codec, nil)
			if err != nil {
				return err
			}
			at, err := a.Transpose()
			if err != nil {
				return err
			}
			_, err = SpGEMM(a, at, spmat.Arithmetic, Float64Codec, DefaultSpGEMMOpts())
			return err
		})
		return sum.Time
	}
	if a, b := timeFor(4), timeFor(4); a != b {
		t.Errorf("virtual time nondeterministic: %g vs %g", a, b)
	}
}

func TestColumnCounts(t *testing.T) {
	ts := []spmat.Triple[float64]{
		{Row: 0, Col: 3, Val: 1}, {Row: 5, Col: 3, Val: 1}, {Row: 9, Col: 3, Val: 1},
		{Row: 2, Col: 7, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 8, Col: 0, Val: 1},
	}
	for _, p := range []int{1, 4, 9} {
		runGrid(t, p, func(g *Grid) error {
			m, err := NewFromTriples(g, 10, 10, scatter(ts, g.Comm.Rank(), p), Float64Codec, nil)
			if err != nil {
				return err
			}
			counts, err := m.ColumnCounts()
			if err != nil {
				return err
			}
			// Each rank must see the full count for columns in its block range.
			cLo, cHi := BlockRange(10, g.Q, g.MyCol)
			want := map[spmat.Index]int64{3: 3, 7: 1, 0: 2}
			for col, n := range want {
				if col < cLo || col >= cHi {
					continue
				}
				if counts[col] != n {
					return fmt.Errorf("p=%d col %d count = %d, want %d", p, col, counts[col], n)
				}
			}
			return nil
		})
	}
}

// Panels of the blocked SUMMA must concatenate — per rank, in panel order —
// to exactly the monolithic product, for several grid sizes and block counts
// (including blocks exceeding the block width). Each panel must also equal
// the matching ColRange slice of the monolithic local block bit-for-bit.
func TestSpGEMMBlockedMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, k, mcols := spmat.Index(37), spmat.Index(50), spmat.Index(23)
	aT := randomTriples(rng, n, k, 260)
	bT := randomTriples(rng, k, mcols, 260)

	for _, p := range []int{1, 4, 9} {
		for _, blocks := range []int{1, 2, 3, 8, 64} {
			runGrid(t, p, func(g *Grid) error {
				a, err := NewFromTriples(g, n, k, scatter(aT, g.Comm.Rank(), p), Float64Codec, nil)
				if err != nil {
					return err
				}
				b, err := NewFromTriples(g, k, mcols, scatter(bT, g.Comm.Rank(), p), Float64Codec, nil)
				if err != nil {
					return err
				}
				opts := DefaultSpGEMMOpts()
				mono, err := SpGEMM(a, b, spmat.Arithmetic, Float64Codec, opts)
				if err != nil {
					return err
				}
				var concat []spmat.Triple[float64]
				panels := 0
				err = panelLoop(a, b, spmat.Arithmetic, opts, blocks,
					func(panel int, lo, hi spmat.Index, pm *Mat[float64]) error {
						if panel != panels {
							return fmt.Errorf("panel %d out of order (want %d)", panel, panels)
						}
						panels++
						want := mono.Local.ColRange(lo, hi)
						if !spmat.Equal(pm.Local, want, func(x, y float64) bool { return x == y }) {
							return fmt.Errorf("p=%d blocks=%d panel %d [%d,%d): differs from monolithic slice",
								p, blocks, panel, lo, hi)
						}
						concat = append(concat, pm.Local.ToTriples()...)
						return nil
					})
				if err != nil {
					return err
				}
				if panels != blocks {
					return fmt.Errorf("saw %d panels, want %d", panels, blocks)
				}
				want := mono.Local.ToTriples()
				if len(concat) != len(want) {
					return fmt.Errorf("p=%d blocks=%d: concat %d nonzeros, want %d",
						p, blocks, len(concat), len(want))
				}
				for i := range want {
					if concat[i] != want[i] {
						return fmt.Errorf("p=%d blocks=%d: triple %d: %+v != %+v",
							p, blocks, i, concat[i], want[i])
					}
				}
				return nil
			})
		}
	}
}

// PanelRange must tile the local width exactly, in order, for ragged and
// oversubscribed block counts alike.
func TestPanelRangeTiles(t *testing.T) {
	runGrid(t, 4, func(g *Grid) error {
		m, err := NewFromTriples(g, 10, 23, nil, Float64Codec, nil)
		if err != nil {
			return err
		}
		for _, blocks := range []int{1, 2, 5, 23, 40} {
			var prev spmat.Index
			for k := 0; k < blocks; k++ {
				lo, hi := m.PanelRange(blocks, k)
				if lo != prev || hi < lo {
					return fmt.Errorf("blocks=%d panel %d: [%d,%d) after %d", blocks, k, lo, hi, prev)
				}
				prev = hi
			}
			if prev != m.Local.NumCols {
				return fmt.Errorf("blocks=%d: panels cover %d of %d cols", blocks, prev, m.Local.NumCols)
			}
		}
		return nil
	})
}

// The clock's live-bytes ledger must record matrix constructions and
// releases, and blocked SpGEMM must peak below the monolithic run when the
// product dominates memory.
func TestPeakBytesLedger(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := spmat.Index(120)
	aT := randomTriples(rng, n, n, 2400)
	peaks := map[int]int64{}
	for _, blocks := range []int{1, 8} {
		sum := runGrid(t, 4, func(g *Grid) error {
			a, err := NewFromTriples(g, n, n, scatter(aT, g.Comm.Rank(), 4), Float64Codec, nil)
			if err != nil {
				return err
			}
			if g.Comm.Clock().LiveBytes() < a.LocalBytes() {
				return fmt.Errorf("live bytes %d below local block %d", g.Comm.Clock().LiveBytes(), a.LocalBytes())
			}
			return panelLoop(a, a, spmat.Arithmetic, DefaultSpGEMMOpts(), blocks,
				func(panel int, lo, hi spmat.Index, pm *Mat[float64]) error {
					pm.Release()
					return nil
				})
		})
		peaks[blocks] = sum.PeakBytes
	}
	if peaks[8] >= peaks[1] {
		t.Errorf("8-panel peak %d not below monolithic %d", peaks[8], peaks[1])
	}
}
