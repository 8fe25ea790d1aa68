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

// ID is a census id: a column index as wide as its column space needs.
type ID interface{ uint32 | uint64 }

// Chunk is one list of a rank's share of a matrix not yet built, held as
// columns rather than triples: entry i is (row, Cols[i], Vals[i]), and the
// rows come in runs — row Row+s holds the entries from Ends[s-1] (0 for
// s = 0) up to Ends[s]. At 4-byte ids and values an entry takes 8 bytes
// against a Triple's 24.
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

// Triples lays chunks out as one list of triples, in chunk order: the A of
// a build that keeps every k-mer.
func Triples[K ID, T any](chunks []Chunk[K, T]) []spmat.Triple[T] {
	n := 0
	for _, ch := range chunks {
		n += len(ch.Cols)
	}
	out := make([]spmat.Triple[T], 0, n)
	for _, ch := range chunks {
		start := 0
		for s, end := range ch.Ends {
			row := ch.Row + spmat.Index(s)
			for i := start; i < end; i++ {
				out = append(out, spmat.Triple[T]{Row: row, Col: spmat.Index(ch.Cols[i]), Val: ch.Vals[i]})
			}
			start = end
		}
	}
	return out
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

// keepShared is NewShared's owner census of the columns of a matrix not yet
// built: of the entries in chunks (this rank's share, any order), it returns
// as triples in one list, in chunk order, those whose column is held by at
// least lo and at most hi entries across the whole grid (hi <= 0: no upper
// limit), and the entries this rank counted, as a census owner, in columns
// over hi.
//
// Each column has one owner (censusOwner), which holds 1/p of the column
// space. An id travels to it through the grid — along the grid row to the
// owner's grid column, then along that column to the owner's row — so each
// of the four exchanges is an all-to-all of q ranks, not of p: a world
// all-to-all is charged p−1 latencies, which at 1024 ranks is most of a
// matrix's formation. The owner counts what it received with a hash table
// and answers one bit per id, in the order received; the relay hands each
// sender its bits back the same way. Each id's route is hashed once: the
// sender keeps every entry's grid column and the relay every id's grid
// row, 2 bytes each (q < 2¹⁶), to read the answers back by. Ids cross the
// wire in 4 bytes where the column space fits 32 bits, else 8; answers cost
// one bit per id and hop. Collective over the grid.
func keepShared[K ID, T any](g *Grid, cols spmat.Index, chunks []Chunk[K, T], lo, hi int64) ([]spmat.Triple[T], int64, error) {
	clock := g.Comm.Clock()
	p, q := g.Comm.Size(), g.Q
	width := censusWidth(cols)

	// Hop 1: each id to its owner's grid column.
	n := 0
	for _, ch := range chunks {
		n += len(ch.Cols)
	}
	route := make([]uint16, 0, n)
	sizes := make([]int, q)
	for _, ch := range chunks {
		for _, id := range ch.Cols {
			c := censusOwner(uint64(id), p) % q
			route = append(route, uint16(c))
			sizes[c]++
		}
	}
	sent := make([][]K, q)
	for c, k := range sizes {
		sent[c] = make([]K, 0, k)
	}
	i := 0
	for _, ch := range chunks {
		for _, id := range ch.Cols {
			sent[route[i]] = append(sent[route[i]], id)
			i++
		}
	}
	clock.Ops(float64(n) * VisitOps)
	relayed, err := exchangeIDs(g, g.RowComm, sent, width)
	if err != nil {
		return nil, 0, err
	}

	// Hop 2, at the relay: each id on to its owner's grid row.
	fwd, rows, err := forwardIDs(relayed, g, cols)
	if err != nil {
		return nil, 0, err
	}
	heard := lens(relayed)
	got, err := exchangeIDs(g, g.ColComm, fwd, width)
	if err != nil {
		return nil, 0, err
	}

	// The owner counts and answers.
	answers, over, err := tally(got, g, cols, lo, hi)
	if err != nil {
		return nil, 0, err
	}
	back, err := exchangeBits(g, g.ColComm, answers)
	if err != nil {
		return nil, 0, err
	}
	for r, b := range back {
		if err := checkBits(b, len(fwd[r]), g.RankOf(r, g.MyCol)); err != nil {
			return nil, 0, err
		}
	}
	mine, err := exchangeBits(g, g.RowComm, relayBits(heard, rows, back, g))
	if err != nil {
		return nil, 0, err
	}
	kept := 0
	for c, b := range mine {
		if err := checkBits(b, sizes[c], g.RankOf(g.MyRow, c)); err != nil {
			return nil, 0, err
		}
		for _, x := range b {
			kept += bits.OnesCount8(x)
		}
	}

	// The drop: the bits come back in the order the ids were sent, and only
	// the kept entries become triples.
	out := make([]spmat.Triple[T], 0, kept)
	next := make([]int, q)
	i = 0
	for _, ch := range chunks {
		start := 0
		for s, end := range ch.Ends {
			row := ch.Row + spmat.Index(s)
			for j := start; j < end; j++ {
				c := route[i]
				if k := next[c]; mine[c][k>>3]>>(k&7)&1 != 0 {
					out = append(out, spmat.Triple[T]{Row: row, Col: spmat.Index(ch.Cols[j]), Val: ch.Vals[j]})
				}
				next[c]++
				i++
			}
			start = end
		}
	}
	clock.Ops(float64(n) * VisitOps)
	return out, over, nil
}

// censusWidth is the wire width of an id of a cols-wide space.
func censusWidth(cols spmat.Index) int {
	if cols <= 1<<32 {
		return 4
	}
	return 8
}

// lens returns the length of each part.
func lens[K ID](parts [][]K) []int {
	out := make([]int, len(parts))
	for i, p := range parts {
		out[i] = len(p)
	}
	return out
}

// exchangeIDs is one census hop: parts[j] goes to rank j of comm.
func exchangeIDs[K ID](g *Grid, comm *mpi.Comm, parts [][]K, width int) ([][]K, error) {
	return alltoall(g, comm, parts,
		func(ids []K) int64 { return int64(len(ids) * width) },
		func(ids []K) []byte { return appendIDs(make([]byte, 0, len(ids)*width), ids, width) },
		func(buf []byte) ([]K, error) { return decodeIDs[K](buf, width) })
}

// exchangeBits is one answer hop: parts[j], a bitmap, goes to rank j of comm.
func exchangeBits(g *Grid, comm *mpi.Comm, parts [][]byte) ([][]byte, error) {
	return alltoall(g, comm, parts,
		func(b []byte) int64 { return int64(len(b)) },
		func(b []byte) []byte { return b },
		func(buf []byte) ([]byte, error) { return buf, nil })
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
// Whether each id belongs where it arrived is its receiver's check.
func decodeIDs[K ID](buf []byte, width int) ([]K, error) {
	if len(buf)%width != 0 {
		return nil, fmt.Errorf("census part of %d bytes is not whole %d-byte ids", len(buf), width)
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

// forwardIDs buckets the ids a relay received — each must be owned in its
// grid column — by their owner's grid row, in arrival order: senders in
// rank order, each sender's ids in the order sent. It returns the buckets
// and that grid row of every id received, in arrival order.
func forwardIDs[K ID](relayed [][]K, g *Grid, cols spmat.Index) ([][]K, []uint16, error) {
	p, q := g.Comm.Size(), g.Q
	n := 0
	for _, ids := range relayed {
		n += len(ids)
	}
	sizes := make([]int, q)
	rows := make([]uint16, 0, n)
	for src, ids := range relayed {
		for _, id := range ids {
			o := -1
			if uint64(id) < uint64(cols) {
				o = censusOwner(uint64(id), p)
			}
			if o < 0 || o%q != g.MyCol {
				return nil, nil, fmt.Errorf("dmat: census ids from rank %d: id %d is not counted in grid column %d",
					g.RankOf(g.MyRow, src), uint64(id), g.MyCol)
			}
			rows = append(rows, uint16(o/q))
			sizes[o/q]++
		}
	}
	fwd := make([][]K, q)
	for r, k := range sizes {
		fwd[r] = make([]K, 0, k)
	}
	i := 0
	for _, ids := range relayed {
		for _, id := range ids {
			fwd[rows[i]] = append(fwd[rows[i]], id)
			i++
		}
	}
	g.Comm.Clock().Ops(float64(n) * VisitOps)
	return fwd, rows, nil
}

// tally is the owner's count: got[r] holds the ids grid row r relayed, each
// of which this rank must own. It returns one bitmap per sender — bit i set
// when the i-th id's count lies in [lo, hi] (hi <= 0: no upper limit) — and
// the sum of the counts over hi. The table is sized to what arrived, not to
// the owner's range of the column space (48 M ids at k = 6 and p = 4).
func tally[K ID](got [][]K, g *Grid, cols spmat.Index, lo, hi int64) ([][]byte, int64, error) {
	total := 0
	for _, ids := range got {
		total += len(ids)
	}
	table, slots, err := countIDs(got, g, cols, total)
	if err != nil {
		return nil, 0, err
	}
	if hi <= 0 {
		hi = int64(total)
	}
	var over int64
	for _, e := range table {
		if int64(e.count) > hi {
			over += int64(e.count)
		}
	}
	answers := make([][]byte, len(got))
	k := 0
	for r, ids := range got {
		if len(ids) == 0 {
			continue
		}
		b := make([]byte, (len(ids)+7)/8)
		for i := range ids {
			if n := int64(table[slots[k]].count); n >= lo && n <= hi {
				b[i>>3] |= 1 << (i & 7)
			}
			k++
		}
		answers[r] = b
	}
	g.Comm.Clock().Ops(float64(total) * censusOps)
	return answers, over, nil
}

// tallySlot is one entry of the owner's table: an id and its count (0:
// empty), side by side so that a probe reads one cache line.
type tallySlot[K ID] struct {
	key   K
	count int32
}

// countIDs is tally's table: open addressing, at most two thirds full. It
// returns the table and each arriving id's slot, in arrival order.
func countIDs[K ID](got [][]K, g *Grid, cols spmat.Index, total int) ([]tallySlot[K], []int32, error) {
	p, me := g.Comm.Size(), g.Comm.Rank()
	size := 16
	for size < total+total/2 {
		size <<= 1
	}
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	table := make([]tallySlot[K], size)
	slots := make([]int32, 0, total)
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

// relayBits hands the owners' answers back to the relay's senders: sender
// j, which relayed heard[j] ids here, gets bit i as the answer to its i-th,
// read from the bitmap of the id's owner row (rows, in arrival order) in the
// order forwardIDs bucketed it.
func relayBits(heard []int, rows []uint16, back [][]byte, g *Grid) [][]byte {
	next := make([]int, g.Q)
	out := make([][]byte, len(heard))
	k := 0
	for src, n := range heard {
		if n == 0 {
			continue
		}
		b := make([]byte, (n+7)/8)
		for i := range n {
			r := rows[k]
			if j := next[r]; back[r][j>>3]>>(j&7)&1 != 0 {
				b[i>>3] |= 1 << (i & 7)
			}
			next[r]++
			k++
		}
		out[src] = b
	}
	g.Comm.Clock().Ops(float64(k) * VisitOps)
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
