package dmat

import (
	"fmt"
	"unsafe"

	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/wire"
)

// drop marks an entry a build drops — by the census or the owner's column
// filter — in a route list (q < 2¹⁶−1).
const drop = ^uint16(0)

// NewFromChunks is the one build of a distributed matrix from scattered
// entries: the rows×cols matrix of the entries in chunks, this rank's share
// in any order (K must hold every column index). With lo > 1 the owner
// census (census.go) keeps only the entries whose column holds at least lo
// entries across the grid. Kept entries cross as columns in two hops of q
// ranks — along the grid row to their column block, then along the grid
// column to their row block; a world all-to-all would be charged p−1
// latencies — and are assembled straight from the columns received,
// duplicates folding with add in arrival order: by sending world rank, then
// chunk order (with nil add a duplicate is an error). A non-nil keep is the
// owner's column filter: a column block's grid column drops, on arrival from
// the other ranks of its grid row, each entry whose column keep rejects,
// before it forwards or assembles anything. A rank's entries of its own
// column block are its own to judge and pass unchecked, so no entry is
// checked twice and at q = 1 keep is never called. Collective over the grid.
func NewFromChunks[K ID, T any](g *Grid, rows, cols spmat.Index, chunks []Chunk[K, T], codec Codec[T],
	add func(T, T) T, lo int64, keep func(spmat.Index) bool) (*Mat[T], error) {

	if err := codec.check(); err != nil {
		return nil, err
	}
	if cols > 0 && uint64(cols-1) > uint64(^K(0)) {
		return nil, fmt.Errorf("dmat: %d-byte ids cannot name %d columns", unsafe.Sizeof(K(0)), cols)
	}
	for _, ch := range chunks {
		if err := ch.check(rows, cols); err != nil {
			return nil, err
		}
	}
	if censusWidth(rows) == 4 {
		return build[K, uint32](g, rows, cols, chunks, codec, add, lo, keep)
	}
	return build[K, uint64](g, rows, cols, chunks, codec, add, lo, keep)
}

// NewFromTriples is NewFromChunks over triples, with no census: one chunk
// per run of equal rows.
func NewFromTriples[T any](g *Grid, rows, cols spmat.Index, ts []spmat.Triple[T],
	codec Codec[T], add func(T, T) T) (*Mat[T], error) {

	var chunks []Chunk[uint64, T]
	for i, t := range ts {
		if i == 0 || t.Row != ts[i-1].Row {
			chunks = append(chunks, Chunk[uint64, T]{Row: t.Row, Ends: []int{0}})
		}
		ch := &chunks[len(chunks)-1]
		ch.Cols, ch.Vals, ch.Ends[0] = append(ch.Cols, uint64(t.Col)), append(ch.Vals, t.Val), ch.Ends[0]+1
	}
	return NewFromChunks(g, rows, cols, chunks, codec, add, 0, nil)
}

// entries is one part of a build in flight, as columns: entry i is
// (rows[i], ids[i], vals[i]), in global indices.
type entries[K, R ID, T any] struct {
	ids  []K
	rows []R
	vals []T
}

// build is NewFromChunks with rows held as R, as wide as the row space.
func build[K, R ID, T any](g *Grid, rows, cols spmat.Index, chunks []Chunk[K, T], codec Codec[T],
	add func(T, T) T, lo int64, keep func(spmat.Index) bool) (*Mat[T], error) {

	ids, vals := make([][]K, len(chunks)), make([][]T, len(chunks))
	for c, ch := range chunks {
		ids[c], vals[c] = ch.Cols, ch.Vals
	}
	dest, err := census(g, cols, ids, lo)
	if err != nil {
		return nil, err
	}
	i, kept := 0, 0
	for _, l := range ids {
		for _, id := range l {
			if dest[i] != drop {
				dest[i] = uint16(BlockOf(spmat.Index(id), cols, g.Q))
				kept++
			}
			i++
		}
	}
	g.Comm.Clock().Ops(float64(kept) * BuildOps)
	pi, pv := bucket(ids, dest, g.Q), bucket(vals, dest, g.Q)
	parts := make([]entries[K, R, T], g.Q)
	for d := range parts {
		parts[d] = entries[K, R, T]{pi[d], make([]R, 0, len(pi[d])), pv[d]}
	}
	i = 0
	for _, ch := range chunks {
		start := 0
		for s, end := range ch.Ends {
			for range end - start {
				if d := dest[i]; d != drop {
					parts[d].rows = append(parts[d].rows, R(ch.Row+spmat.Index(s)))
				}
				i++
			}
			start = end
		}
	}
	relayed, err := exchangeEntries(g, g.RowComm, parts, rows, cols, codec)
	if err != nil {
		return nil, err
	}
	fwd, err := forwardEntries(relayed, g, rows, cols, keep)
	if err != nil {
		return nil, err
	}
	got, err := exchangeEntries(g, g.ColComm, fwd, rows, cols, codec)
	if err != nil {
		return nil, err
	}
	return assembleEntries(g, rows, cols, got, codec, add)
}

// forwardEntries is a build's relay: each entry its grid row sent, which
// must lie in this grid column, goes on to its row block in arrival order,
// unless it came from another grid column and keep (non-nil) rejects its
// column. On a 1×1 grid both hops are the rank's own part, which passes
// through untouched: assembleEntries checks every entry against the block.
func forwardEntries[K, R ID, T any](relayed []entries[K, R, T], g *Grid, rows, cols spmat.Index,
	keep func(spmat.Index) bool) ([]entries[K, R, T], error) {

	if g.Q == 1 {
		return relayed, nil
	}
	cLo, cHi := BlockRange(cols, g.Q, g.MyCol)
	ids, rs, vals := make([][]K, g.Q), make([][]R, g.Q), make([][]T, g.Q)
	for src, e := range relayed {
		ids[src], rs[src], vals[src] = e.ids, e.rows, e.vals
	}
	dest := make([]uint16, 0, total(ids))
	checked, kept := 0, 0
	for src, e := range relayed {
		judge := keep != nil && src != g.MyCol
		for x, id := range e.ids {
			row := e.rows[x]
			if uint64(id) < uint64(cLo) || uint64(id) >= uint64(cHi) || uint64(row) >= uint64(rows) {
				return nil, fmt.Errorf("dmat: entry (%d,%d) from rank %d is not grid column %d's",
					uint64(row), uint64(id), g.RankOf(g.MyRow, src), g.MyCol)
			}
			if judge {
				checked++
				if !keep(spmat.Index(id)) {
					dest = append(dest, drop)
					continue
				}
			}
			dest = append(dest, uint16(BlockOf(spmat.Index(row), rows, g.Q)))
			kept++
		}
	}
	g.Comm.Clock().Ops(float64(kept)*BuildOps + float64(checked)*VisitOps)
	pi, pr, pv := bucket(ids, dest, g.Q), bucket(rs, dest, g.Q), bucket(vals, dest, g.Q)
	fwd := make([]entries[K, R, T], g.Q)
	for d := range fwd {
		fwd[d] = entries[K, R, T]{pi[d], pr[d], pv[d]}
	}
	return fwd, nil
}

// exchangeEntries is one hop of a build: parts[j] goes to rank j of comm,
// ids at censusWidth(cols), rows at censusWidth(rows) and values under codec.
func exchangeEntries[K, R ID, T any](g *Grid, comm *mpi.Comm, parts []entries[K, R, T], rows, cols spmat.Index,
	codec Codec[T]) ([]entries[K, R, T], error) {

	idW, rowW := censusWidth(cols), censusWidth(rows)
	size := func(e entries[K, R, T]) int64 {
		if len(e.ids) == 0 {
			return 0
		}
		return 8 + int64(len(e.ids))*int64(idW+rowW+codec.Width)
	}
	return alltoall(g, comm, parts, size,
		func(e entries[K, R, T]) []byte { return appendEntries(make([]byte, 0, size(e)), e, idW, rowW, codec) },
		func(buf []byte) (entries[K, R, T], error) { return decodeEntries[K, R](buf, idW, rowW, codec) })
}

// appendEntries appends e's wire form: its entry count, then its ids, rows
// and values, each column whole.
func appendEntries[K, R ID, T any](dst []byte, e entries[K, R, T], idW, rowW int, codec Codec[T]) []byte {
	dst = appendIDs(appendIDs(wire.AppendU64(dst, uint64(len(e.ids))), e.ids, idW), e.rows, rowW)
	for _, v := range e.vals {
		dst = codec.Append(dst, v)
	}
	return dst
}

// decodeEntries is appendEntries' inverse; a part whose columns disagree
// with its count is refused. Where each entry belongs is its receiver's
// check.
func decodeEntries[K, R ID, T any](buf []byte, idW, rowW int, codec Codec[T]) (entries[K, R, T], error) {
	r := wire.NewReader(buf)
	n := uint64(r.Count(idW + rowW + codec.Width))
	ids, _ := decodeIDs[K](r.Take(n*uint64(idW)), idW)
	rs, _ := decodeIDs[R](r.Take(n*uint64(rowW)), rowW)
	raw := r.Take(n * uint64(codec.Width))
	if err := r.Done(); err != nil {
		return entries[K, R, T]{}, fmt.Errorf("entry columns: %w", err)
	}
	vals := make([]T, n)
	for i := range vals {
		vals[i], _ = codec.Decode(raw[i*codec.Width:])
	}
	return entries[K, R, T]{ids, rs, vals}, nil
}

// assembleEntries builds this rank's block from the parts its grid column
// relayed, each entry in the block, laid out once in block-local indices
// for spmat.FromColumns.
func assembleEntries[K, R ID, T any](g *Grid, rows, cols spmat.Index, parts []entries[K, R, T], codec Codec[T],
	add func(T, T) T) (*Mat[T], error) {

	rLo, rHi := BlockRange(rows, g.Q, g.MyRow)
	cLo, cHi := BlockRange(cols, g.Q, g.MyCol)
	n := 0
	for _, e := range parts {
		n += len(e.ids)
	}
	lc, lr, vals := make([]K, 0, n), make([]R, 0, n), make([]T, 0, n)
	for src, e := range parts {
		for i, id := range e.ids {
			row := e.rows[i]
			if uint64(row) < uint64(rLo) || uint64(row) >= uint64(rHi) || uint64(id) < uint64(cLo) || uint64(id) >= uint64(cHi) {
				return nil, fmt.Errorf("dmat: entry (%d,%d) from rank %d is not block (%d,%d)'s",
					uint64(row), uint64(id), g.RankOf(src, g.MyCol), g.MyRow, g.MyCol)
			}
			lc, lr = append(lc, id-K(cLo)), append(lr, row-R(rLo))
		}
		vals = append(vals, e.vals...)
	}
	clock := g.Comm.Clock()
	clock.Ops(float64(n) * BuildOps)
	b, err := spmat.FromColumns(rHi-rLo, cHi-cLo, lc, lr, vals, add)
	if err != nil {
		return nil, err
	}
	m := &Mat[T]{Grid: g, Rows: rows, Cols: cols, Local: b, codec: codec}
	clock.AllocBytes(m.LocalBytes())
	return m, nil
}
