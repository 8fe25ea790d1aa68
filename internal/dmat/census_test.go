package dmat

import (
	"fmt"
	"math/rand"
	"reflect"
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
						got, o, err := NewShared(g, rows, cols, chunks, Float64Codec, lim.lo, lim.hi)
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
	if got, err := decodeIDs(ids(4, 7, 1<<32-1), 4); err != nil || !reflect.DeepEqual(got, []spmat.Index{7, 1<<32 - 1}) {
		t.Errorf("decode: %v %v", got, err)
	}
	if got, err := decodeIDs(ids(8, 7, 1<<40), 8); err != nil || !reflect.DeepEqual(got, []spmat.Index{7, 1 << 40}) {
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
		if _, err := decodeIDs(bad.buf, bad.width); err == nil {
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
			o := censusOwner(id, 4)
			if o%g.Q != g.MyCol && foreign < 0 {
				foreign = id
			}
			if o != g.Comm.Rank() && elsewhere < 0 {
				elsewhere = id
			}
		}
		from := 1 - g.MyCol // the other rank of the grid row
		for _, id := range []spmat.Index{foreign, cols, -5} {
			relayed := make([][]spmat.Index, g.Q)
			relayed[from] = []spmat.Index{id}
			_, err := forwardIDs(relayed, g, cols)
			if want := fmt.Sprintf("from rank %d:", g.RankOf(g.MyRow, from)); err == nil || !strings.Contains(err.Error(), want) {
				return fmt.Errorf("relay took id %d: %v", id, err)
			}
		}
		got := make([][]spmat.Index, g.Q)
		got[1-g.MyRow] = []spmat.Index{elsewhere}
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
		parts := make([][]spmat.Index, g.Q)
		parts[1-g.MyCol] = []spmat.Index{7}
		_, err = alltoall(g, g.RowComm, parts,
			func(ids []spmat.Index) int64 { return 3 },
			func(ids []spmat.Index) []byte { return []byte{7, 0, 0} },
			func(b []byte) ([]spmat.Index, error) { return decodeIDs(b, 4) })
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
// through the owner census, on the in-process shared backend.
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
	shares := make([][][]spmat.Triple[int32], p)
	for i := range p {
		shares[i] = [][]spmat.Triple[int32]{ts[len(ts)*i/p : len(ts)*(i+1)/p]}
	}
	for b.Loop() {
		runGrid(b, p, func(g *Grid) error {
			_, _, err := NewShared(g, rows, cols, shares[g.Comm.Rank()], Int32Codec, 2, 0)
			return err
		})
	}
}
