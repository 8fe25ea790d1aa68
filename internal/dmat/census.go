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

// censusOwner is the world rank that counts column id: the high word of id's
// Fibonacci hash scaled to p. A plain range of ids would put a k-mer's first
// residue in its owner, and residue frequencies would unbalance the owners
// (max/mean ids per owner 1.38 at p = 4 and 2.37 at p = 64 on the benchmark
// generator's A, against 1.004 and 1.04 hashed).
func censusOwner(id spmat.Index, p int) int {
	hi, _ := bits.Mul64(uint64(id)*0x9E3779B97F4A7C15, uint64(p))
	return int(hi)
}

// censusSlot is the rest of censusOwner's product: the hash bits the choice
// of owner left uniform, which place id in its owner's table. (The high bits
// of the hash itself are nearly the same for every id one owner receives.)
func censusSlot(id spmat.Index, p int) uint64 {
	_, lo := bits.Mul64(uint64(id)*0x9E3779B97F4A7C15, uint64(p))
	return lo
}

// keepShared is NewShared's owner census of the columns of a matrix not yet
// built: of the triples in chunks (this rank's share, any order), it returns
// in one list, in chunk order, those whose column is held by at least lo and
// at most hi triples across the whole grid (hi <= 0: no upper limit), and
// the triples this rank counted, as a census owner, in columns over hi.
//
// Each column has one owner (censusOwner), which holds 1/p of the column
// space. An id travels to it through the grid — along the grid row to the
// owner's grid column, then along that column to the owner's row — so each
// of the four exchanges is an all-to-all of q ranks, not of p: a world
// all-to-all is charged p−1 latencies, which at 1024 ranks is most of a
// matrix's formation. The owner counts what it received with a hash table
// and answers one bit per id, in the order received; the relay hands each
// sender its bits back the same way. Ids cross the wire in 4 bytes where the
// column space fits 32 bits, else 8; answers cost one bit per id and hop.
// Collective over the grid.
func keepShared[T any](g *Grid, cols spmat.Index, chunks [][]spmat.Triple[T], lo, hi int64) ([]spmat.Triple[T], int64, error) {
	clock := g.Comm.Clock()
	p, q := g.Comm.Size(), g.Q
	width := censusWidth(cols)

	// Hop 1: each id to its owner's grid column.
	sizes := make([]int, q)
	n := 0
	for _, ch := range chunks {
		for _, t := range ch {
			sizes[censusOwner(t.Col, p)%q]++
		}
		n += len(ch)
	}
	sent := make([][]spmat.Index, q)
	for c, k := range sizes {
		sent[c] = make([]spmat.Index, 0, k)
	}
	for _, ch := range chunks {
		for _, t := range ch {
			c := censusOwner(t.Col, p) % q
			sent[c] = append(sent[c], t.Col)
		}
	}
	clock.Ops(float64(n) * VisitOps)
	relayed, err := exchangeIDs(g, g.RowComm, sent, width)
	if err != nil {
		return nil, 0, err
	}

	// Hop 2, at the relay: each id on to its owner's grid row.
	fwd, err := forwardIDs(relayed, g, cols)
	if err != nil {
		return nil, 0, err
	}
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
	mine, err := exchangeBits(g, g.RowComm, relayBits(relayed, back, g))
	if err != nil {
		return nil, 0, err
	}
	kept := 0
	for c, b := range mine {
		if err := checkBits(b, len(sent[c]), g.RankOf(g.MyRow, c)); err != nil {
			return nil, 0, err
		}
		for _, x := range b {
			kept += bits.OnesCount8(x)
		}
	}

	// The drop: the bits come back in the order the ids were sent.
	out := make([]spmat.Triple[T], 0, kept)
	next := make([]int, q)
	for _, ch := range chunks {
		for _, t := range ch {
			c := censusOwner(t.Col, p) % q
			if i := next[c]; mine[c][i>>3]>>(i&7)&1 != 0 {
				out = append(out, t)
			}
			next[c]++
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

// exchangeIDs is one census hop: parts[j] goes to rank j of comm.
func exchangeIDs(g *Grid, comm *mpi.Comm, parts [][]spmat.Index, width int) ([][]spmat.Index, error) {
	return alltoall(g, comm, parts,
		func(ids []spmat.Index) int64 { return int64(len(ids) * width) },
		func(ids []spmat.Index) []byte { return appendIDs(make([]byte, 0, len(ids)*width), ids, width) },
		func(buf []byte) ([]spmat.Index, error) { return decodeIDs(buf, width) })
}

// exchangeBits is one answer hop: parts[j], a bitmap, goes to rank j of comm.
func exchangeBits(g *Grid, comm *mpi.Comm, parts [][]byte) ([][]byte, error) {
	return alltoall(g, comm, parts,
		func(b []byte) int64 { return int64(len(b)) },
		func(b []byte) []byte { return b },
		func(buf []byte) ([]byte, error) { return buf, nil })
}

// appendIDs appends ids, each in width little-endian bytes.
func appendIDs(dst []byte, ids []spmat.Index, width int) []byte {
	for _, id := range ids {
		if width == 4 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		} else {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
		}
	}
	return dst
}

// decodeIDs is appendIDs' inverse; a part that is not whole ids is refused.
// Whether each id belongs where it arrived is its receiver's check.
func decodeIDs(buf []byte, width int) ([]spmat.Index, error) {
	if len(buf)%width != 0 {
		return nil, fmt.Errorf("census part of %d bytes is not whole %d-byte ids", len(buf), width)
	}
	ids := make([]spmat.Index, len(buf)/width)
	for i := range ids {
		if width == 4 {
			ids[i] = spmat.Index(binary.LittleEndian.Uint32(buf[4*i:]))
		} else {
			ids[i] = spmat.Index(binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return ids, nil
}

// forwardIDs buckets the ids a relay received — each must be owned in its
// grid column — by their owner's grid row, in arrival order: senders in
// rank order, each sender's ids in the order sent.
func forwardIDs(relayed [][]spmat.Index, g *Grid, cols spmat.Index) ([][]spmat.Index, error) {
	p, q := g.Comm.Size(), g.Q
	sizes := make([]int, q)
	n := 0
	for src, ids := range relayed {
		for _, id := range ids {
			o := -1
			if id >= 0 && id < cols {
				o = censusOwner(id, p)
			}
			if o < 0 || o%q != g.MyCol {
				return nil, fmt.Errorf("dmat: census ids from rank %d: id %d is not counted in grid column %d",
					g.RankOf(g.MyRow, src), id, g.MyCol)
			}
			sizes[o/q]++
		}
		n += len(ids)
	}
	fwd := make([][]spmat.Index, q)
	for r, k := range sizes {
		fwd[r] = make([]spmat.Index, 0, k)
	}
	for _, ids := range relayed {
		for _, id := range ids {
			r := censusOwner(id, p) / q
			fwd[r] = append(fwd[r], id)
		}
	}
	g.Comm.Clock().Ops(float64(n) * VisitOps)
	return fwd, nil
}

// tally is the owner's count: got[r] holds the ids grid row r relayed, each
// of which this rank must own. It returns one bitmap per sender — bit i set
// when the i-th id's count lies in [lo, hi] (hi <= 0: no upper limit) — and
// the sum of the counts over hi. The table is sized to what arrived, not to
// the owner's range of the column space (48 M ids at k = 6 and p = 4).
func tally(got [][]spmat.Index, g *Grid, cols spmat.Index, lo, hi int64) ([][]byte, int64, error) {
	total := 0
	for _, ids := range got {
		total += len(ids)
	}
	var counts, slots []int32
	var err error
	if cols <= 1<<32 {
		counts, slots, err = countIDs[uint32](got, g, cols, total)
	} else {
		counts, slots, err = countIDs[uint64](got, g, cols, total)
	}
	if err != nil {
		return nil, 0, err
	}
	if hi <= 0 {
		hi = int64(total)
	}
	var over int64
	for _, n := range counts {
		if int64(n) > hi {
			over += int64(n)
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
			if n := int64(counts[slots[k]]); n >= lo && n <= hi {
				b[i>>3] |= 1 << (i & 7)
			}
			k++
		}
		answers[r] = b
	}
	g.Comm.Clock().Ops(float64(total) * censusOps)
	return answers, over, nil
}

// countIDs is tally's table: open addressing over keys as wide as the
// column space needs, at most two thirds full. It returns each slot's count
// (0: empty) and each arriving id's slot, in arrival order.
func countIDs[K uint32 | uint64](got [][]spmat.Index, g *Grid, cols spmat.Index, total int) ([]int32, []int32, error) {
	p, me := g.Comm.Size(), g.Comm.Rank()
	size := 16
	for size < total+total/2 {
		size <<= 1
	}
	shift := uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	keys := make([]K, size)
	counts := make([]int32, size)
	slots := make([]int32, 0, total)
	for r, ids := range got {
		for _, id := range ids {
			if id < 0 || id >= cols || censusOwner(id, p) != me {
				return nil, nil, fmt.Errorf("dmat: census ids from rank %d: id %d is not counted at rank %d",
					g.RankOf(r, g.MyCol), id, me)
			}
			key := K(id)
			i := censusSlot(id, p) >> shift
			for counts[i] != 0 && keys[i] != key {
				i = (i + 1) & mask
			}
			keys[i] = key
			counts[i]++
			slots = append(slots, int32(i))
		}
	}
	return counts, slots, nil
}

// relayBits hands the owners' answers back to the relay's senders: sender
// j's bit i is the answer to the i-th id j relayed here, read from the
// bitmap of that id's owner row in the order forwardIDs bucketed it.
func relayBits(relayed [][]spmat.Index, back [][]byte, g *Grid) [][]byte {
	p, q := g.Comm.Size(), g.Q
	next := make([]int, q)
	out := make([][]byte, len(relayed))
	n := 0
	for src, ids := range relayed {
		if len(ids) == 0 {
			continue
		}
		b := make([]byte, (len(ids)+7)/8)
		for i, id := range ids {
			r := censusOwner(id, p) / q
			if j := next[r]; back[r][j>>3]>>(j&7)&1 != 0 {
				b[i>>3] |= 1 << (i & 7)
			}
			next[r]++
		}
		out[src] = b
		n += len(ids)
	}
	g.Comm.Clock().Ops(float64(n) * VisitOps)
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
