package dmat

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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

// chunkOf lays the triples of one list out as a Chunk over rows [0, rows),
// stably sorted by row.
func chunkOf[K ID, T any](ts []spmat.Triple[T], rows spmat.Index) Chunk[K, T] {
	ts = slices.Clone(ts)
	slices.SortStableFunc(ts, func(a, b spmat.Triple[T]) int { return cmp.Compare(a.Row, b.Row) })
	c := Chunk[K, T]{Ends: make([]int, rows)}
	for _, t := range ts {
		c.Cols = append(c.Cols, K(t.Col))
		c.Vals = append(c.Vals, t.Val)
		c.Ends[t.Row]++
	}
	for r := 1; r < len(c.Ends); r++ {
		c.Ends[r] += c.Ends[r-1]
	}
	return c
}

// chunksOf is chunkOf over each list.
func chunksOf[K ID, T any](lists [][]spmat.Triple[T], rows spmat.Index) []Chunk[K, T] {
	out := make([]Chunk[K, T], len(lists))
	for i, ts := range lists {
		out[i] = chunkOf[K](ts, rows)
	}
	return out
}

// newShared is NewShared over the triple lists laid out as chunks, with ids
// as wide as the census sends them.
func newShared[T any](g *Grid, rows, cols spmat.Index, lists [][]spmat.Triple[T], codec Codec[T],
	lo, hi int64) (*Mat[T], int64, error) {

	if censusWidth(cols) == 4 {
		return NewShared(g, rows, cols, chunksOf[uint32](lists, rows), codec, lo, hi)
	}
	return NewShared(g, rows, cols, chunksOf[uint64](lists, rows), codec, lo, hi)
}

// TestNewSharedIsTheCensusPrune holds NewShared to the matrix every triple
// forms, with the columns whose grid-wide count lies outside [lo, hi]
// dropped, and to the over-limit total counted serially: at every rank
// count, on both block transports, with the triples split across ranks in
// chunks, and in a column space wider than 32 bits (8-byte ids).
func TestNewSharedIsTheCensusPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const rows = 40
	for _, cols := range []spmat.Index{1000, 1 << 40} {
		ts := censusTriples(rng, rows, cols, 150)
		count := map[spmat.Index]int64{}
		for _, tr := range ts {
			count[tr.Col]++
		}
		for _, lim := range []struct{ lo, hi int64 }{{2, 0}, {2, 3}, {1, 2}, {0, 0}} {
			var want []spmat.Triple[float64]
			var over int64
			for _, tr := range ts {
				if n := count[tr.Col]; n >= lim.lo && (lim.hi <= 0 || n <= lim.hi) {
					want = append(want, tr)
				}
				if lim.hi > 0 && count[tr.Col] > lim.hi {
					over++
				}
			}
			for _, p := range []int{1, 4, 9, 16} {
				for _, backend := range []Backend{BackendShared, BackendCodec} {
					name := fmt.Sprintf("cols=%d lo=%d hi=%d p=%d backend=%d", cols, lim.lo, lim.hi, p, backend)
					overs := make([]int64, p)
					runGrid(t, p, func(g *Grid) error {
						g.Backend = backend
						mine := scatter(ts, g.Comm.Rank(), p)
						chunks := [][]spmat.Triple[float64]{mine[:len(mine)/3], nil, mine[len(mine)/3:]}
						got, o, err := newShared(g, rows, cols, chunks, Float64Codec, lim.lo, lim.hi)
						if err != nil {
							return err
						}
						overs[g.Comm.Rank()] = o
						ref, err := NewFromTriples(g, rows, cols, scatter(want, g.Comm.Rank(), p), Float64Codec, nil)
						if err != nil {
							return err
						}
						if !reflect.DeepEqual(got.Local, ref.Local) {
							return fmt.Errorf("%s: rank %d block differs from the pruned reference", name, g.Comm.Rank())
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
				}
			}
		}
	}
}

// TestChunkCheck: NewShared refuses a chunk whose runs do not cover its
// entries in order, whose rows or columns leave the matrix, or whose ids
// are too narrow for the column space, before any census traffic.
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
		if _, _, err := NewShared(g, rows, 1<<33, []Chunk[uint32, int32]{good}, Int32Codec, 2, 0); err == nil {
			return fmt.Errorf("4-byte ids accepted for a 2^33-column space")
		}
		_, _, err := NewShared(g, rows, cols, []Chunk[uint32, int32]{good, {Row: 0, Ends: []int{2}, Cols: []uint32{1}, Vals: []int32{0}}}, Int32Codec, 2, 0)
		if err == nil {
			return fmt.Errorf("a malformed chunk after a good one was accepted")
		}
		return nil
	})
}

// TestCensusWireHardening: every part of the census crosses the transport,
// so a part that is truncated, is not whole ids, names an id its receiver
// does not count or relay, or answers with the wrong number of bits is
// refused with an error naming the sender — never a panic.
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
}

// BenchmarkNewShared forms a matrix shaped like the benchmark generator's A
// at 4 ranks (541 k triples, one in six in a column two or more rows hold)
// through the owner census, on the in-process shared backend. Each rank's
// share is one chunk in row order, as extraction writes it, so the rows
// holding one column reach its owner apart, not side by side.
func BenchmarkNewShared(b *testing.B) {
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
		shares[i] = []Chunk[uint32, int32]{chunkOf[uint32](ts[len(ts)*i/p:len(ts)*(i+1)/p], rows)}
	}
	for b.Loop() {
		runGrid(b, p, func(g *Grid) error {
			_, _, err := NewShared(g, rows, cols, shares[g.Comm.Rank()], Int32Codec, 2, 0)
			return err
		})
	}
}
