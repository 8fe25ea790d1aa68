package dmat

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/wire"
)

// censusTriples returns distinct (row, column) triples over rows×cols whose
// columns are held by 1 to 6 rows, most by one.
func censusTriples(rng *rand.Rand, rows, cols spmat.Index, ncols int) []spmat.Triple[float64] {
	seen := map[[2]spmat.Index]bool{}
	var ts []spmat.Triple[float64]
	for range ncols {
		c := spmat.Index(rng.Int63n(int64(cols)))
		n := 1
		if rng.Intn(4) == 0 {
			n = 2 + rng.Intn(5)
		}
		for range n {
			r := spmat.Index(rng.Int63n(int64(rows)))
			if !seen[[2]spmat.Index{r, c}] {
				seen[[2]spmat.Index{r, c}] = true
				ts = append(ts, spmat.Triple[float64]{Row: r, Col: c, Val: float64(len(ts))})
			}
		}
	}
	return ts
}

// chunksOf lays each list out as chunks, stably sorted by row, one chunk
// per row that holds entries, with ids as wide as K.
func chunksOf[K ID, T any](lists [][]spmat.Triple[T]) []Chunk[K, T] {
	var out []Chunk[K, T]
	for _, ts := range lists {
		ts = slices.Clone(ts)
		slices.SortStableFunc(ts, func(a, b spmat.Triple[T]) int { return cmp.Compare(a.Row, b.Row) })
		for i, t := range ts {
			if i == 0 || t.Row != ts[i-1].Row {
				out = append(out, Chunk[K, T]{Row: t.Row, Ends: []int{0}})
			}
			ch := &out[len(out)-1]
			ch.Cols, ch.Vals = append(ch.Cols, K(t.Col)), append(ch.Vals, t.Val)
			ch.Ends[0]++
		}
	}
	return out
}

// newFromLists is NewFromChunks over the triple lists laid out as chunks,
// with ids as wide as a build sends them.
func newFromLists[T any](g *Grid, rows, cols spmat.Index, lists [][]spmat.Triple[T], codec Codec[T],
	add func(T, T) T, lo, hi int64) (*Mat[T], int64, error) {

	if censusWidth(cols) == 4 {
		return NewFromChunks(g, rows, cols, chunksOf[uint32](lists), codec, add, lo, hi, nil)
	}
	return NewFromChunks(g, rows, cols, chunksOf[uint64](lists), codec, add, lo, hi, nil)
}

// referenceBlock is grid rank g's block of the matrix ts forms, built
// serially: the triples in the block, in block-local indices, through
// spmat.FromTriples.
func referenceBlock[T any](g *Grid, rows, cols spmat.Index, ts []spmat.Triple[T], add func(T, T) T) (*spmat.DCSC[T], error) {
	rLo, rHi := BlockRange(rows, g.Q, g.MyRow)
	cLo, cHi := BlockRange(cols, g.Q, g.MyCol)
	var local []spmat.Triple[T]
	for _, t := range ts {
		if t.Row >= rLo && t.Row < rHi && t.Col >= cLo && t.Col < cHi {
			local = append(local, spmat.Triple[T]{Row: t.Row - rLo, Col: t.Col - cLo, Val: t.Val})
		}
	}
	return spmat.FromTriples(rHi-rLo, cHi-cLo, local, add)
}

// TestNewFromChunksIsTheCensusPrune holds NewFromChunks, block by block, to
// spmat.FromTriples over the whole triple list with the columns whose
// grid-wide count lies outside [lo, hi] dropped, and the over-limit total
// to the one counted serially: at every rank count, on both block
// transports, with the triples split across ranks in chunks, in a column
// space wider than 32 bits (8-byte ids) and in a row space wider than 32
// bits (8-byte rows). Without a census, duplicates fold with an order-free
// add to the reference's values, and a duplicate with nil add is an error.
func TestNewFromChunksIsTheCensusPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, shape := range []struct{ rows, cols spmat.Index }{{40, 1000}, {40, 1 << 40}, {1 << 33, 1000}} {
		ts := censusTriples(rng, shape.rows, shape.cols, 150)
		count := map[spmat.Index]int64{}
		for _, tr := range ts {
			count[tr.Col]++
		}
		// Every third triple again, valued apart: duplicates a build with
		// no census folds.
		dups := slices.Clone(ts)
		for i := 0; i < len(ts); i += 3 {
			dups = append(dups, spmat.Triple[float64]{Row: ts[i].Row, Col: ts[i].Col, Val: float64(1000 + i)})
		}
		for _, c := range []struct {
			lo, hi int64
			ts     []spmat.Triple[float64]
			add    func(x, y float64) float64
		}{{2, 0, ts, nil}, {2, 3, ts, nil}, {1, 2, ts, nil}, {0, 0, ts, nil}, {0, 0, dups, math.Max}} {
			var want []spmat.Triple[float64]
			var over int64
			for _, tr := range c.ts {
				if n := count[tr.Col]; n >= c.lo && (c.hi <= 0 || n <= c.hi) {
					want = append(want, tr)
				}
				if c.hi > 0 && count[tr.Col] > c.hi {
					over++
				}
			}
			for _, p := range []int{1, 4, 9, 16} {
				for _, backend := range []Backend{BackendShared, BackendCodec} {
					name := fmt.Sprintf("%dx%d lo=%d hi=%d dups=%v p=%d backend=%d",
						shape.rows, shape.cols, c.lo, c.hi, len(c.ts) > len(ts), p, backend)
					overs := make([]int64, p)
					runGrid(t, p, func(g *Grid) error {
						g.Backend = backend
						mine := scatter(c.ts, g.Comm.Rank(), p)
						lists := [][]spmat.Triple[float64]{mine[:len(mine)/3], nil, mine[len(mine)/3:]}
						got, o, err := newFromLists(g, shape.rows, shape.cols, lists, Float64Codec, c.add, c.lo, c.hi)
						if err != nil {
							return fmt.Errorf("%s: %w", name, err)
						}
						overs[g.Comm.Rank()] = o
						ref, err := referenceBlock(g, shape.rows, shape.cols, want, c.add)
						if err != nil {
							return err
						}
						if !reflect.DeepEqual(got.Local, ref) {
							return fmt.Errorf("%s: rank %d block differs from the reference", name, g.Comm.Rank())
						}
						return nil
					})
					var sum int64
					for _, o := range overs {
						sum += o
					}
					if sum != over {
						t.Errorf("%s: owners counted %d over the limit, want %d", name, sum, over)
					}
					if len(c.ts) == len(ts) {
						continue
					}
					// The duplicates again, with nil add: refused by the
					// rank whose block holds one.
					err := mpi.NewCluster(p, mpi.DefaultCostModel()).Run(func(comm *mpi.Comm) error {
						g, err := NewGrid(comm)
						if err != nil {
							return err
						}
						g.Backend = backend
						_, _, err = newFromLists(g, shape.rows, shape.cols,
							[][]spmat.Triple[float64]{scatter(c.ts, comm.Rank(), p)}, Float64Codec, nil, 0, 0)
						return err
					})
					if err == nil || !strings.Contains(err.Error(), "duplicate entry") {
						t.Errorf("%s: duplicates with nil add: %v", name, err)
					}
				}
			}
		}
	}
}

// TestNewFromChunksColumnFilter holds the owner's column filter to its rule
// at q ∈ {1, 2, 3}: an entry that a rank sends into another grid column's
// block reaches that block only if keep accepts its column, and keep is
// asked about those entries alone; an entry of its sender's own column block
// passes unjudged, so at q = 1 keep is never called. Duplicates still fold
// with add. A nil filter builds the block of every entry, as does a filter
// that keeps all, on the same wire bytes; the rejecting filter's drops leave
// hop 2's traffic.
func TestNewFromChunksColumnFilter(t *testing.T) {
	const rows, cols = 40, 1000
	rng := rand.New(rand.NewSource(43))
	ts := censusTriples(rng, rows, cols, 200)
	for i, n := 0, len(ts); i < n; i += 3 { // duplicates, valued apart
		ts = append(ts, spmat.Triple[float64]{Row: ts[i].Row, Col: ts[i].Col, Val: float64(1000 + i)})
	}
	filters := []struct {
		name string
		keep func(spmat.Index) bool
	}{{"nil", nil}, {"all", func(spmat.Index) bool { return true }}, {"odd", func(c spmat.Index) bool { return c%2 == 1 }}}
	for _, p := range []int{1, 4, 9} {
		q := map[int]int{1: 1, 4: 2, 9: 3}[p]
		var wire [3]int64
		for f, filter := range filters {
			// Triple i is sent by rank i%p (scatter); the owner judges it
			// when that rank's grid column is not the column's block.
			var want []spmat.Triple[float64]
			crossing := int64(0)
			for i, tr := range ts {
				own := (i%p)%q == BlockOf(tr.Col, cols, q)
				if !own {
					crossing++
				}
				if own || filter.keep == nil || filter.keep(tr.Col) {
					want = append(want, tr)
				}
			}
			var calls atomic.Int64
			keep := filter.keep
			if keep != nil {
				keep = func(c spmat.Index) bool { calls.Add(1); return filter.keep(c) }
			}
			sum := runGrid(t, p, func(g *Grid) error {
				mine := scatter(ts, g.Comm.Rank(), p)
				got, _, err := NewFromChunks(g, rows, cols, chunksOf[uint32]([][]spmat.Triple[float64]{mine}),
					Float64Codec, math.Max, 0, 0, keep)
				if err != nil {
					return err
				}
				ref, err := referenceBlock(g, rows, cols, want, math.Max)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got.Local, ref) {
					return fmt.Errorf("p=%d %s: rank %d block differs from the reference", p, filter.name, g.Comm.Rank())
				}
				return nil
			})
			wire[f] = sum.BytesOnWire
			if keep != nil && calls.Load() != crossing {
				t.Errorf("p=%d %s: keep asked %d times, want %d (the entries crossing grid columns)",
					p, filter.name, calls.Load(), crossing)
			}
			if filter.name == "odd" && (len(want) < len(ts)) != (p > 1) {
				t.Errorf("p=%d: the filter dropped %d of %d entries", p, len(ts)-len(want), len(ts))
			}
		}
		if wire[1] != wire[0] || (wire[2] < wire[0]) != (p > 1) {
			t.Errorf("p=%d: bytes on wire nil %d, all %d, odd %d", p, wire[0], wire[1], wire[2])
		}
	}
}

// TestChunkCheck: NewFromChunks refuses a chunk whose runs do not cover its
// entries in order, whose rows or columns leave the matrix, or whose ids
// are too narrow for the column space, before any traffic.
func TestChunkCheck(t *testing.T) {
	const rows, cols = 10, 1000
	good := Chunk[uint32, int32]{Row: 7, Ends: []int{1, 1, 3}, Cols: []uint32{5, 6, 999}, Vals: []int32{0, 1, 2}}
	if err := good.check(rows, cols); err != nil {
		t.Fatalf("well-formed chunk refused: %v", err)
	}
	if err := (Chunk[uint32, int32]{}).check(rows, cols); err != nil {
		t.Fatalf("empty chunk refused: %v", err)
	}
	for name, c := range map[string]Chunk[uint32, int32]{
		"short values":   {Row: 0, Ends: []int{2}, Cols: []uint32{1, 2}, Vals: []int32{0}},
		"runs backwards": {Row: 0, Ends: []int{2, 1}, Cols: []uint32{1, 2}, Vals: []int32{0, 0}},
		"run past end":   {Row: 0, Ends: []int{3}, Cols: []uint32{1, 2}, Vals: []int32{0, 0}},
		"uncovered":      {Row: 0, Ends: []int{1}, Cols: []uint32{1, 2}, Vals: []int32{0, 0}},
		"no runs":        {Cols: []uint32{1}, Vals: []int32{0}},
		"rows past end":  {Row: 8, Ends: []int{0, 0, 1}, Cols: []uint32{1}, Vals: []int32{0}},
		"negative row":   {Row: -1, Ends: []int{1}, Cols: []uint32{1}, Vals: []int32{0}},
		"column outside": {Row: 0, Ends: []int{1}, Cols: []uint32{cols}, Vals: []int32{0}},
	} {
		if err := c.check(rows, cols); err == nil {
			t.Errorf("%s: chunk accepted", name)
		}
	}
	runGrid(t, 1, func(g *Grid) error {
		if _, _, err := NewFromChunks(g, rows, 1<<33, []Chunk[uint32, int32]{good}, Int32Codec, nil, 2, 0, nil); err == nil {
			return fmt.Errorf("4-byte ids accepted for a 2^33-column space")
		}
		_, _, err := NewFromChunks(g, rows, cols, []Chunk[uint32, int32]{good, {Row: 0, Ends: []int{2}, Cols: []uint32{1}, Vals: []int32{0}}}, Int32Codec, nil, 2, 0, nil)
		if err == nil {
			return fmt.Errorf("a malformed chunk after a good one was accepted")
		}
		return nil
	})
}

// TestCensusWireHardening: every part of the census and of a build crosses
// the transport, so a part that is truncated, is not whole ids, disagrees
// with its own count, names an id or entry its receiver does not count,
// relay or hold, or answers with the wrong number of bits is refused with
// an error naming the sender — never a panic.
func TestCensusWireHardening(t *testing.T) {
	ids := func(width int, xs ...uint64) []byte {
		var buf []byte
		for _, x := range xs {
			if width == 4 {
				buf = wire.AppendU32(buf, uint32(x))
			} else {
				buf = wire.AppendU64(buf, x)
			}
		}
		return buf
	}
	if got, err := decodeIDs[uint64](ids(4, 7, 1<<32-1), 4); err != nil || !reflect.DeepEqual(got, []uint64{7, 1<<32 - 1}) {
		t.Errorf("decode: %v %v", got, err)
	}
	if got, err := decodeIDs[uint64](ids(8, 7, 1<<40), 8); err != nil || !reflect.DeepEqual(got, []uint64{7, 1 << 40}) {
		t.Errorf("decode: %v %v", got, err)
	}
	for name, bad := range map[string]struct {
		buf   []byte
		width int
	}{
		"torn":     {ids(4, 7, 8)[:7], 4},
		"half id":  {ids(4, 7, 8, 9)[:10], 8},
		"one byte": {[]byte{1}, 4},
	} {
		if _, err := decodeIDs[uint64](bad.buf, bad.width); err == nil {
			t.Errorf("%s part decoded", name)
		}
	}

	const cols = 1000
	runGrid(t, 4, func(g *Grid) error {
		// An id whose owner is in another grid column, one past the space
		// and a negative one reach a relay; an id owned elsewhere reaches an
		// owner. Each is refused with the world rank of its sender.
		var foreign, elsewhere spmat.Index = -1, -1
		for id := spmat.Index(0); id < cols && (foreign < 0 || elsewhere < 0); id++ {
			o := censusOwner(uint64(id), 4)
			if o%g.Q != g.MyCol && foreign < 0 {
				foreign = id
			}
			if o != g.Comm.Rank() && elsewhere < 0 {
				elsewhere = id
			}
		}
		from := 1 - g.MyCol // the other rank of the grid row
		for _, id := range []spmat.Index{foreign, cols, -5} {
			relayed := make([][]uint64, g.Q)
			relayed[from] = []uint64{uint64(id)}
			_, _, err := forwardIDs(relayed, g, cols)
			if want := fmt.Sprintf("from rank %d:", g.RankOf(g.MyRow, from)); err == nil || !strings.Contains(err.Error(), want) {
				return fmt.Errorf("relay took id %d: %v", id, err)
			}
		}
		got := make([][]uint64, g.Q)
		got[1-g.MyRow] = []uint64{uint64(elsewhere)}
		if _, _, err := tally(got, g, cols, 2, 0); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("from rank %d:", g.RankOf(1-g.MyRow, g.MyCol))) {
			return fmt.Errorf("owner counted id %d: %v", elsewhere, err)
		}
		// An answer must carry one bit per id sent, padded to whole bytes.
		for _, c := range []struct {
			bits   []byte
			ids    int
			accept bool
		}{{nil, 0, true}, {[]byte{1}, 8, true}, {[]byte{1, 0}, 9, true},
			{[]byte{1}, 9, false}, {[]byte{1, 0}, 8, false}, {nil, 3, false}} {
			err := checkBits(c.bits, c.ids, 3)
			if (err == nil) != c.accept || (err != nil && !strings.Contains(err.Error(), "from rank 3:")) {
				return fmt.Errorf("%d answer bytes for %d ids: %v", len(c.bits), c.ids, err)
			}
		}
		return nil
	})

	// On the codec backend a torn id part is refused by the receiving
	// relay, named by its sender's world rank.
	cl := mpi.NewCluster(4, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		g, err := NewGrid(c)
		if err != nil {
			return err
		}
		g.Backend = BackendCodec
		parts := make([][]uint64, g.Q)
		parts[1-g.MyCol] = []uint64{7}
		_, err = alltoall(g, g.RowComm, parts,
			func(ids []uint64) int64 { return 3 },
			func(ids []uint64) []byte { return []byte{7, 0, 0} },
			func(b []byte) ([]uint64, error) { return decodeIDs[uint64](b, 4) })
		if want := fmt.Sprintf("dmat: part from rank %d:", g.RankOf(g.MyRow, 1-g.MyCol)); err == nil ||
			!strings.Contains(err.Error(), want) {
			return fmt.Errorf("torn part: %v, want %q", err, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A build's entry parts cross the same way: a part torn inside its
	// columns, or whose id, row and value sections disagree with its count
	// and each other, is refused by its receiver; an entry a relay's grid
	// column does not hold, or one outside the receiving block's rows, is
	// refused after it crossed. Each error names the sender's world rank.
	const rows = 10
	good := wire.AppendU64(nil, 2)
	good = append(good, ids(4, 5, 6)...)   // ids
	good = append(good, ids(4, 1, 2)...)   // rows
	good = append(good, ids(4, 70, 71)...) // values
	short := wire.AppendU64(nil, 2)
	short = append(short, ids(4, 5, 6)...)
	short = append(short, ids(4, 1)...)      // one row for two ids
	short = append(short, ids(4, 70, 71)...) // and the values
	long := append(slices.Clone(good), ids(4, 3)...)
	if got, err := decodeEntries[uint32, uint32](good, 4, 4, Int32Codec); err != nil ||
		!reflect.DeepEqual(got, entries[uint32, uint32, int32]{[]uint32{5, 6}, []uint32{1, 2}, []int32{70, 71}}) {
		t.Errorf("decode entries: %+v %v", got, err)
	}
	cl = mpi.NewCluster(4, mpi.DefaultCostModel())
	err = cl.Run(func(c *mpi.Comm) error {
		g, err := NewGrid(c)
		if err != nil {
			return err
		}
		g.Backend = BackendCodec
		for name, buf := range map[string][]byte{"torn": good[:len(good)-3], "short rows": short, "long values": long} {
			parts := make([]entries[uint32, uint32, int32], g.Q)
			parts[1-g.MyCol] = entries[uint32, uint32, int32]{[]uint32{5}, []uint32{1}, []int32{70}}
			_, err := alltoall(g, g.RowComm, parts,
				func(e entries[uint32, uint32, int32]) int64 { return int64(len(buf)) },
				func(entries[uint32, uint32, int32]) []byte { return buf },
				func(b []byte) (entries[uint32, uint32, int32], error) {
					return decodeEntries[uint32, uint32](b, 4, 4, Int32Codec)
				})
			if want := fmt.Sprintf("dmat: part from rank %d:", g.RankOf(g.MyRow, 1-g.MyCol)); err == nil ||
				!strings.Contains(err.Error(), want) {
				return fmt.Errorf("%s entry part: %v, want %q", name, err, want)
			}
		}

		// Each rank sends the other rank of its grid row an entry of its own
		// grid column, and the other rank of its grid column an entry of its
		// own row block.
		cLo, _ := BlockRange(cols, g.Q, g.MyCol)
		rLo, _ := BlockRange(rows, g.Q, g.MyRow)
		parts := make([]entries[uint32, uint32, int32], g.Q)
		parts[1-g.MyCol] = entries[uint32, uint32, int32]{[]uint32{uint32(cLo)}, []uint32{0}, []int32{1}}
		relayed, err := exchangeEntries(g, g.RowComm, parts, rows, cols, Int32Codec)
		if err != nil {
			return err
		}
		_, err = forwardEntries(relayed, g, rows, cols, nil)
		if want := fmt.Sprintf("from rank %d is not grid column %d's", g.RankOf(g.MyRow, 1-g.MyCol), g.MyCol); err == nil ||
			!strings.Contains(err.Error(), want) {
			return fmt.Errorf("relay took a foreign entry: %v, want %q", err, want)
		}
		parts = make([]entries[uint32, uint32, int32], g.Q)
		parts[1-g.MyRow] = entries[uint32, uint32, int32]{[]uint32{uint32(cLo)}, []uint32{uint32(rLo)}, []int32{1}}
		got, err := exchangeEntries(g, g.ColComm, parts, rows, cols, Int32Codec)
		if err != nil {
			return err
		}
		_, err = assembleEntries(g, rows, cols, got, Int32Codec, nil)
		if want := fmt.Sprintf("from rank %d is not block (%d,%d)'s", g.RankOf(1-g.MyRow, g.MyCol), g.MyRow, g.MyCol); err == nil ||
			!strings.Contains(err.Error(), want) {
			return fmt.Errorf("owner took an entry outside its rows: %v, want %q", err, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkNewFromChunks forms a matrix shaped like the benchmark
// generator's A at 4 ranks (541 k triples, one in six in a column two or
// more rows hold) through the owner census, on the in-process shared
// backend. Each rank's share is one chunk in row order, as extraction writes
// it, so the rows holding one column reach its owner apart, not side by
// side.
func BenchmarkNewFromChunks(b *testing.B) {
	const p, rows, cols = 4, 2000, 191102976 // 24^6 k-mer columns
	rng := rand.New(rand.NewSource(6))
	var ts []spmat.Triple[int32]
	seen := map[[2]spmat.Index]bool{}
	for len(ts) < 541_330 {
		c := spmat.Index(rng.Int63n(cols))
		n := 1
		if rng.Intn(30) == 0 {
			n = 2 + rng.Intn(8)
		}
		for range n {
			r := spmat.Index(rng.Int63n(rows))
			if !seen[[2]spmat.Index{r, c}] {
				seen[[2]spmat.Index{r, c}] = true
				ts = append(ts, spmat.Triple[int32]{Row: r, Col: c, Val: int32(len(ts))})
			}
		}
	}
	shares := make([][]Chunk[uint32, int32], p)
	for i := range p {
		shares[i] = chunksOf[uint32]([][]spmat.Triple[int32]{ts[len(ts)*i/p : len(ts)*(i+1)/p]})
	}
	for b.Loop() {
		runGrid(b, p, func(g *Grid) error {
			_, _, err := NewFromChunks(g, rows, cols, shares[g.Comm.Rank()], Int32Codec, nil, 2, 0, nil)
			return err
		})
	}
}
