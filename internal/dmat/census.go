package dmat

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/mpi"
	"repro/internal/spmat"
)

// censusOps is the charged cost per id at its census owner: one hash-table
// probe when the id arrives and one read when its answer bit is written.
const censusOps = 4

// ID is an index as a build holds and sends it: a column id or a row, as
// wide as its space needs.
type ID interface{ uint32 | uint64 }

// Chunk is one list of a rank's share of a matrix not yet built, held as
// columns rather than triples: entry i is (row, Cols[i], Vals[i]), and the
// rows come in runs — row Row+s holds the entries from Ends[s-1] (0 for
// s = 0) up to Ends[s]. At 4-byte ids and values an entry takes 8 bytes
// against a triple's 24.
type Chunk[K ID, T any] struct {
	Row  spmat.Index
	Ends []int
	Cols []K
	Vals []T
}

// check refuses a chunk whose runs do not cover its entries in order or
// that holds an entry outside rows×cols.
func (c Chunk[K, T]) check(rows, cols spmat.Index) error {
	if len(c.Vals) != len(c.Cols) {
		return fmt.Errorf("dmat: chunk of %d columns and %d values", len(c.Cols), len(c.Vals))
	}
	if len(c.Ends) > 0 && (c.Row < 0 || c.Row > rows-spmat.Index(len(c.Ends))) {
		return fmt.Errorf("dmat: chunk rows %d to %d outside %d", c.Row, c.Row+spmat.Index(len(c.Ends)), rows)
	}
	start := 0
	for s, end := range c.Ends {
		if end < start || end > len(c.Cols) {
			return fmt.Errorf("dmat: chunk run %d ends at %d, after %d of %d entries", s, end, start, len(c.Cols))
		}
		for _, id := range c.Cols[start:end] {
			if uint64(id) >= uint64(cols) {
				return fmt.Errorf("dmat: triple (%d,%d) outside %dx%d", c.Row+spmat.Index(s), uint64(id), rows, cols)
			}
		}
		start = end
	}
	if start != len(c.Cols) {
		return fmt.Errorf("dmat: chunk runs cover %d of %d entries", start, len(c.Cols))
	}
	return nil
}

// censusHash places column id: its owner, the world rank that counts it —
// the high word of id's Fibonacci hash scaled to p — and the rest of that
// product, the hash bits the choice of owner left uniform, which place id in
// its owner's table (the high bits of the hash itself are nearly the same
// for every id one owner receives). A plain range of ids would put a k-mer's
// first residue in its owner, and residue frequencies would unbalance the
// owners (max/mean ids per owner 1.38 at p = 4 and 2.37 at p = 64 on the
// benchmark generator's A, against 1.004 and 1.04 hashed).
func censusHash(id uint64, p int) (owner int, slot uint64) {
	hi, lo := bits.Mul64(id*0x9E3779B97F4A7C15, uint64(p))
	return int(hi), lo
}

// censusOwner is censusHash's owner of id.
func censusOwner(id uint64, p int) int {
	o, _ := censusHash(id, p)
	return o
}

// census is NewFromChunks' owner census: for this rank's entries' column
// ids it returns, in list order, the grid column of each id's owner, or drop
// where the column holds fewer than lo entries across the grid. An id
// reaches its owner (censusOwner, 1/p of the column space) along the grid
// row and then the grid column, so each of the four exchanges is among q
// ranks; the owner counts with a hash table and answers one bit per id in
// arrival order, handed back the same way. Sender and relay keep each id's
// hop as 2 bytes (q < 2¹⁶) to read the answers by. Ids cross in censusWidth
// bytes, answers in one bit per id and hop.
func census[K ID](g *Grid, cols spmat.Index, ids [][]K, lo int64) ([]uint16, error) {
	if lo <= 1 {
		return make([]uint16, total(ids)), nil // nothing can drop: no census
	}
	clock := g.Comm.Clock()
	p, q := g.Comm.Size(), g.Q
	width := censusWidth(cols)

	// Hop 1: each id to its owner's grid column.
	route := make([]uint16, 0, total(ids))
	for _, l := range ids {
		for _, id := range l {
			route = append(route, uint16(censusOwner(uint64(id), p)%q))
		}
	}
	sent := bucket(ids, route, q)
	asked := lens(sent)
	clock.Ops(float64(len(route)) * VisitOps)
	relayed, err := exchangeIDs(g, g.RowComm, sent, width)
	if err != nil {
		return nil, err
	}

	// Hop 2, at the relay: each id on to its owner's grid row.
	fwd, rows, err := forwardIDs(relayed, g, cols)
	if err != nil {
		return nil, err
	}
	heard := lens(relayed)
	got, err := exchangeIDs(g, g.ColComm, fwd, width)
	if err != nil {
		return nil, err
	}

	// The owner counts and answers.
	answers, err := tally(got, g, cols, lo)
	if err != nil {
		return nil, err
	}
	back, err := exchangeBits(g, g.ColComm, answers, lens(fwd))
	if err != nil {
		return nil, err
	}
	mine, err := exchangeBits(g, g.RowComm, relayBits(heard, rows, back, g), asked)
	if err != nil {
		return nil, err
	}
	// The drop: the bits come back in the order the ids were sent.
	next := make([]int, q)
	for i, c := range route {
		if k := next[c]; mine[c][k>>3]>>(k&7)&1 == 0 {
			route[i] = drop
		}
		next[c]++
	}
	clock.Ops(float64(len(route)) * VisitOps)
	return route, nil
}

// censusWidth is the wire width of an id of a cols-wide space.
func censusWidth(cols spmat.Index) int {
	if cols <= 1<<32 {
		return 4
	}
	return 8
}

// exchangeIDs is one census hop: parts[j] goes to rank j of comm.
func exchangeIDs[K ID](g *Grid, comm *mpi.Comm, parts [][]K, width int) ([][]K, error) {
	return alltoall(g, comm, parts,
		func(ids []K) int64 { return int64(len(ids) * width) },
		func(ids []K) []byte { return appendIDs(make([]byte, 0, len(ids)*width), ids, width) },
		func(buf []byte) ([]K, error) { return decodeIDs[K](buf, width) })
}

// exchangeBits is one answer hop: parts[j], a bitmap, goes to rank j of
// comm, and the answer from rank j must hold one bit for each of asked[j]
// ids.
func exchangeBits(g *Grid, comm *mpi.Comm, parts [][]byte, asked []int) ([][]byte, error) {
	got, err := alltoall(g, comm, parts,
		func(b []byte) int64 { return int64(len(b)) },
		func(b []byte) []byte { return b },
		func(buf []byte) ([]byte, error) { return buf, nil })
	for j := range got {
		if err == nil {
			err = checkBits(got[j], asked[j], g.worldRank(comm, j))
		}
	}
	return got, err
}

// appendIDs appends ids, each in width little-endian bytes.
func appendIDs[K ID](dst []byte, ids []K, width int) []byte {
	if width == 4 {
		for _, id := range ids {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		}
		return dst
	}
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
	}
	return dst
}

// decodeIDs is appendIDs' inverse; a part that is not whole ids is refused.
func decodeIDs[K ID](buf []byte, width int) ([]K, error) {
	if len(buf)%width != 0 {
		return nil, fmt.Errorf("part of %d bytes is not whole %d-byte ids", len(buf), width)
	}
	ids := make([]K, len(buf)/width)
	if width == 4 {
		for i := range ids {
			ids[i] = K(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		return ids, nil
	}
	for i := range ids {
		ids[i] = K(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return ids, nil
}

// forwardIDs buckets the ids a relay received, each owned in its grid
// column, by their owner's grid row in arrival order, and returns that row
// of every id too.
func forwardIDs[K ID](relayed [][]K, g *Grid, cols spmat.Index) ([][]K, []uint16, error) {
	p, q := g.Comm.Size(), g.Q
	rows := make([]uint16, 0, total(relayed))
	for src, ids := range relayed {
		for _, id := range ids {
			o := censusOwner(uint64(id), p)
			if uint64(id) >= uint64(cols) || o%q != g.MyCol {
				return nil, nil, fmt.Errorf("dmat: census ids from rank %d: id %d is not counted in grid column %d",
					g.RankOf(g.MyRow, src), uint64(id), g.MyCol)
			}
			rows = append(rows, uint16(o/q))
		}
	}
	g.Comm.Clock().Ops(float64(len(rows)) * VisitOps)
	return bucket(relayed, rows, q), rows, nil
}

// lens returns the length of each list.
func lens[X any](lists [][]X) []int {
	out := make([]int, len(lists))
	for i, l := range lists {
		out[i] = len(l)
	}
	return out
}

// total is the number of items in lists.
func total[X any](lists [][]X) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

// bucket lays the items of lists, read in order, out as q parts by dest
// (drop: none), each part sized once.
func bucket[X any](lists [][]X, dest []uint16, q int) [][]X {
	sizes := make([]int, q)
	for _, d := range dest {
		if d != drop {
			sizes[d]++
		}
	}
	out := make([][]X, q)
	for j, k := range sizes {
		out[j] = make([]X, 0, k)
	}
	i := 0
	for _, l := range lists {
		for _, x := range l {
			if d := dest[i]; d != drop {
				out[d] = append(out[d], x)
			}
			i++
		}
	}
	return out
}

// tally is the owner's count: got[r] holds the ids grid row r relayed, each
// of which this rank must own. It returns one bitmap per sender, bit i set
// when the i-th id's count is at least lo. The table is sized to what
// arrived, not to the owner's range of the column space (48 M ids at k = 6
// and p = 4).
func tally[K ID](got [][]K, g *Grid, cols spmat.Index, lo int64) ([][]byte, error) {
	n := total(got)
	table, slots, err := countIDs(got, g, cols, n)
	if err != nil {
		return nil, err
	}
	answers := answer(lens(got), func(k int) bool { return int64(table[slots[k]].count) >= lo })
	g.Comm.Clock().Ops(float64(n) * censusOps)
	return answers, nil
}

// tallySlot is one entry of the owner's table: an id and its count (0:
// empty), side by side so that a probe reads one cache line.
type tallySlot[K ID] struct {
	key   K
	count int32
}

// countIDs is tally's table: open addressing, at most two thirds full. It
// returns the table and each arriving id's slot, in arrival order.
func countIDs[K ID](got [][]K, g *Grid, cols spmat.Index, n int) ([]tallySlot[K], []int32, error) {
	p, me := g.Comm.Size(), g.Comm.Rank()
	size := 16
	for size < n+n/2 {
		size <<= 1
	}
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	table := make([]tallySlot[K], size)
	slots := make([]int32, 0, n)
	for r, ids := range got {
		for _, id := range ids {
			o, h := censusHash(uint64(id), p)
			if uint64(id) >= uint64(cols) || o != me {
				return nil, nil, fmt.Errorf("dmat: census ids from rank %d: id %d is not counted at rank %d",
					g.RankOf(r, g.MyCol), uint64(id), me)
			}
			i := h >> shift
			for table[i].count != 0 && table[i].key != id {
				i = (i + 1) & mask
			}
			table[i].key = id
			table[i].count++
			slots = append(slots, int32(i))
		}
	}
	return table, slots, nil
}

// relayBits hands the owners' answers back to the relay's senders, reading
// each id's from its owner row's bitmap (rows, in arrival order).
func relayBits(heard []int, rows []uint16, back [][]byte, g *Grid) [][]byte {
	next := make([]int, g.Q)
	g.Comm.Clock().Ops(float64(len(rows)) * VisitOps)
	return answer(heard, func(k int) bool {
		r := rows[k]
		j := next[r]
		next[r]++
		return back[r][j>>3]>>(j&7)&1 != 0
	})
}

// answer packs one bit per id of parts of counts[j] ids, in order: the
// k-th id overall is answered keep(k).
func answer(counts []int, keep func(k int) bool) [][]byte {
	out := make([][]byte, len(counts))
	k := 0
	for j, n := range counts {
		if n > 0 {
			out[j] = make([]byte, (n+7)/8)
		}
		for i := range n {
			if keep(k) {
				out[j][i>>3] |= 1 << (i & 7)
			}
			k++
		}
	}
	return out
}

// checkBits refuses an answer bitmap that is not one bit per id sent to
// rank from (a world rank).
func checkBits(b []byte, ids, from int) error {
	if want := (ids + 7) / 8; len(b) != want {
		return fmt.Errorf("dmat: census answer from rank %d: %d bytes for %d ids, want %d", from, len(b), ids, want)
	}
	return nil
}
