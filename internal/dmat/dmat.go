// Package dmat implements 2D block-distributed sparse matrices over the mpi
// substrate: the CombBLAS layer of the paper. Matrices live on a √p×√p
// process grid; SpGEMM uses the 2D Sparse SUMMA algorithm (Buluç & Gilbert
// 2012) with semiring-generic local kernels from spmat; transpose is a
// pairwise block exchange; construction shuffles triples to their owners
// with a single all-to-all.
package dmat

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"unsafe"

	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/wire"
)

// Backend selects how collectives move matrix blocks between ranks.
type Backend int

const (
	// BackendShared is the zero-copy shared-memory transport: ranks are
	// goroutines in one address space, so collectives hand blocks to
	// receivers by reference (mpi's typed API) and charge the virtual clock
	// with the analytically computed wire size of the codec encoding.
	// Blocks received this way alias the sender's memory and are read-only
	// by contract. The default.
	BackendShared Backend = iota
	// BackendCodec serializes every block through the byte codecs — the
	// deterministic reference transport, and the one a tcp-backed cluster
	// runs on, where a part must cross a socket. Clock charges are identical
	// to BackendShared by construction (the shared path states exactly the
	// codec payload's size); differential tests hold the two equivalent.
	BackendCodec
)

// Grid is the √p×√p process grid with its row and column communicators
// (paper Section V: the 2D decomposition constrains communication to grid
// rows and columns, which is what makes SUMMA scale).
type Grid struct {
	Comm    *mpi.Comm
	Q       int // grid side; p = Q*Q
	MyRow   int
	MyCol   int
	RowComm *mpi.Comm // all ranks in my grid row; rank within = MyCol
	ColComm *mpi.Comm // all ranks in my grid column; rank within = MyRow
	// Backend is the block transport; every rank of the grid must set the
	// same value before the first collective matrix operation.
	Backend Backend
}

// NewGrid builds the grid; the communicator size must be a perfect square
// (the paper's "p = q^2" requirement).
func NewGrid(c *mpi.Comm) (*Grid, error) {
	q := int(math.Round(math.Sqrt(float64(c.Size()))))
	if q*q != c.Size() {
		return nil, fmt.Errorf("dmat: communicator size %d is not a perfect square", c.Size())
	}
	g := &Grid{Comm: c, Q: q, MyRow: c.Rank() / q, MyCol: c.Rank() % q}
	var err error
	if g.RowComm, err = c.TrySplit(g.MyRow, g.MyCol); err != nil {
		return nil, err
	}
	if g.ColComm, err = c.TrySplit(g.MyCol, g.MyRow); err != nil {
		return nil, err
	}
	return g, nil
}

// RankOf returns the communicator rank of grid position (row, col).
func (g *Grid) RankOf(row, col int) int { return row*g.Q + col }

// BlockRange returns the half-open slice [lo,hi) of dimension n owned by
// block index i of q. The split is ceiling-based — every block except
// possibly the trailing ones has size ⌈n/q⌉ and block i starts at i*⌈n/q⌉ —
// matching the paper's layout where all blocks but the last grid row/column
// are square. A uniform block origin (i*size for every i) is what makes the
// per-block upper-triangle trick of Fig. 11 partition the global
// upper-triangular pairs exactly.
func BlockRange(n spmat.Index, q, i int) (lo, hi spmat.Index) {
	size := (n + spmat.Index(q) - 1) / spmat.Index(q)
	lo = size * spmat.Index(i)
	if lo > n {
		lo = n
	}
	hi = size * spmat.Index(i+1)
	if hi > n {
		hi = n
	}
	return lo, hi
}

// BlockOf returns which of the q blocks owns global index x.
func BlockOf(x, n spmat.Index, q int) int {
	size := (n + spmat.Index(q) - 1) / spmat.Index(q)
	return int(x / size)
}

// Codec serializes matrix values for communication. Width is the encoded
// size of one value in bytes and must be positive: values are fixed-width,
// which is what lets the shared backend compute a payload's wire size
// analytically and the codec backend allocate every buffer exactly.
type Codec[T any] struct {
	Append func(dst []byte, v T) []byte
	Decode func(src []byte) (T, int)
	Width  int
}

var errCodecWidth = errors.New("dmat: codec Width must be positive (values are fixed-width)")

// check rejects a codec the transports cannot size. Every way a codec
// enters the package to size or parse a payload — the matrix constructors,
// SpGEMM's result codec, BcastBlock, DecodeBlock — calls it, so a Mat's own
// codec needs no second look.
func (c Codec[T]) check() error {
	if c.Width <= 0 {
		return fmt.Errorf("%w, not %d", errCodecWidth, c.Width)
	}
	return nil
}

// Int32Codec serializes the k-mer position values of A.
var Int32Codec = Codec[int32]{
	Append: func(dst []byte, v int32) []byte { return wire.AppendU32(dst, uint32(v)) },
	Decode: func(src []byte) (int32, int) { return int32(wire.U32(src)), 4 },
	Width:  4,
}

// Mat is a 2D block-distributed sparse matrix. Process (i,j) stores the
// block covering global rows BlockRange(Rows,q,i) × cols BlockRange(Cols,q,j)
// as a local DCSC with block-local indices.
type Mat[T any] struct {
	Grid       *Grid
	Rows, Cols spmat.Index
	Local      *spmat.DCSC[T]
	codec      Codec[T]
}

// RowOffset and ColOffset return the global index of the local block origin.
func (m *Mat[T]) RowOffset() spmat.Index {
	lo, _ := BlockRange(m.Rows, m.Grid.Q, m.Grid.MyRow)
	return lo
}

func (m *Mat[T]) ColOffset() spmat.Index {
	lo, _ := BlockRange(m.Cols, m.Grid.Q, m.Grid.MyCol)
	return lo
}

// LocalBytes estimates the in-memory footprint of this rank's block; it is
// the unit the clock's live-bytes ledger (AllocBytes/FreeBytes) tracks.
// Zero after Release.
func (m *Mat[T]) LocalBytes() int64 {
	if m.Local == nil {
		return 0
	}
	return m.Local.Bytes()
}

// Release returns the block's bytes to the clock's live-bytes ledger and
// drops the local arrays so Go can reclaim them. Idempotent; the matrix
// must not be used otherwise afterwards (Local is nil). Callers on the
// wave pipeline release each panel as soon as its alignment drains, which
// is what bounds peak memory.
func (m *Mat[T]) Release() {
	if m.Local == nil {
		return
	}
	m.Grid.Comm.Clock().FreeBytes(m.LocalBytes())
	m.Local = nil
}

// BuildOps is the charged cost (generic ops) per triple during sorts,
// shuffles and merges, VisitOps per nonzero for elementwise passes, and
// FlopOps per semiring multiply. Exported because the wave pipeline's
// off-clock lane (internal/core) tallies such operations and must charge the
// same rates.
const (
	BuildOps = 12
	VisitOps = 2
	FlopOps  = 8
)

// NewFromTriples builds a distributed matrix from triples scattered across
// ranks with arbitrary global indices: one Alltoallv routes each triple to
// its owner block, which assembles its local DCSC. Duplicates accumulate
// via add (a duplicate with nil add is an error). Collective: every grid
// rank must call it.
func NewFromTriples[T any](g *Grid, rows, cols spmat.Index, ts []spmat.Triple[T],
	codec Codec[T], add func(T, T) T) (*Mat[T], error) {

	if err := codec.check(); err != nil {
		return nil, err
	}
	clock := g.Comm.Clock()
	size := g.Comm.Size()
	owners := make([]int, len(ts))
	counts := make([]int, size)
	for i, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("dmat: triple (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols)
		}
		owner := g.RankOf(BlockOf(t.Row, rows, g.Q), BlockOf(t.Col, cols, g.Q))
		owners[i] = owner
		counts[owner]++
	}
	clock.Ops(float64(len(ts)) * BuildOps)

	// The shuffle: each owner gets its bucket of triples, whose wire form is
	// 16 bytes of indices + Width per triple.
	rec := 16 + codec.Width
	buckets := make([][]spmat.Triple[T], size)
	for owner, n := range counts {
		if n > 0 {
			buckets[owner] = make([]spmat.Triple[T], 0, n)
		}
	}
	for i, t := range ts {
		buckets[owners[i]] = append(buckets[owners[i]], t)
	}
	parts, err := alltoall(g, buckets,
		func(b []spmat.Triple[T]) int64 { return int64(len(b) * rec) },
		func(b []spmat.Triple[T]) []byte {
			buf := make([]byte, 0, len(b)*rec)
			for _, t := range b {
				buf = appendTriple(buf, t.Row, t.Col, t.Val, codec)
			}
			return buf
		},
		func(buf []byte) ([]spmat.Triple[T], error) { return decodeTriples(nil, buf, codec) })
	if err != nil {
		return nil, err
	}
	// Received buckets may alias their senders'; the block-local copy is
	// this rank's to reorder.
	m := &Mat[T]{Grid: g, Rows: rows, Cols: cols, codec: codec}
	rowOff, colOff := m.RowOffset(), m.ColOffset()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	local := make([]spmat.Triple[T], 0, total)
	for _, part := range parts {
		for _, t := range part {
			local = append(local, spmat.Triple[T]{Row: t.Row - rowOff, Col: t.Col - colOff, Val: t.Val})
		}
	}
	clock.Ops(float64(len(local)) * BuildOps)
	rLo, rHi := BlockRange(rows, g.Q, g.MyRow)
	cLo, cHi := BlockRange(cols, g.Q, g.MyCol)
	loc, err := spmat.FromTriples(rHi-rLo, cHi-cLo, local, add)
	if err != nil {
		return nil, err
	}
	m.Local = loc
	clock.AllocBytes(m.LocalBytes())
	return m, nil
}

// NewFromLocal wraps an already-assembled local block — e.g. decoded from a
// persisted index artifact — into a distributed matrix. The block's shape
// must match this rank's BlockRange slice of the global dimensions exactly;
// a block produced on a different grid side is rejected rather than
// misindexed. Local (no collectives); the block's bytes are charged to the
// live-bytes ledger like every constructor's.
func NewFromLocal[T any](g *Grid, rows, cols spmat.Index, local *spmat.DCSC[T], codec Codec[T]) (*Mat[T], error) {
	if err := codec.check(); err != nil {
		return nil, err
	}
	rLo, rHi := BlockRange(rows, g.Q, g.MyRow)
	cLo, cHi := BlockRange(cols, g.Q, g.MyCol)
	if local.NumRows != rHi-rLo || local.NumCols != cHi-cLo {
		return nil, fmt.Errorf("dmat: local block %dx%d does not match this rank's %dx%d slice of %dx%d",
			local.NumRows, local.NumCols, rHi-rLo, cHi-cLo, rows, cols)
	}
	m := &Mat[T]{Grid: g, Rows: rows, Cols: cols, Local: local, codec: codec}
	g.Comm.Clock().AllocBytes(m.LocalBytes())
	return m, nil
}

// appendTriple appends one (row, col, value) record: two u64 indices and the
// value under codec.
func appendTriple[T any](dst []byte, row, col spmat.Index, v T, codec Codec[T]) []byte {
	dst = wire.AppendU64(dst, uint64(row))
	dst = wire.AppendU64(dst, uint64(col))
	return codec.Append(dst, v)
}

// alltoall is dmat's one all-to-all: parts[j] goes to rank j of the grid and
// the result holds what every rank sent here (the zero P where a rank sent
// nothing). On the shared backend parts move by reference, charged size(p)
// wire bytes each; on the codec backend they travel as encode(p) — exactly
// size(p) bytes, so the two backends bill alike — and come back through
// decode. A part of size 0 is absent, and a rank's part for itself is not
// traffic: it is handed back as is on either backend.
func alltoall[P any](g *Grid, parts []P, size func(P) int64,
	encode func(P) []byte, decode func([]byte) (P, error)) ([]P, error) {

	me := g.Comm.Rank()
	if g.Backend == BackendShared {
		sizes := make([]int64, len(parts))
		for j, p := range parts {
			sizes[j] = size(p)
		}
		return mpi.TryAlltoallvShared(g.Comm, parts, sizes)
	}
	bufs := make([][]byte, len(parts))
	for j, p := range parts {
		if j != me && size(p) > 0 {
			bufs[j] = encode(p)
		}
	}
	got, err := g.Comm.TryAlltoallv(bufs)
	if err != nil {
		return nil, err
	}
	out := make([]P, len(got))
	out[me] = parts[me]
	for src, buf := range got {
		if len(buf) == 0 {
			continue
		}
		if out[src], err = decode(buf); err != nil {
			return nil, fmt.Errorf("dmat: part from rank %d: %w", src, err)
		}
	}
	return out, nil
}

// decodeTriples appends the appendTriple records of one part to dst. Every
// record is bounds-checked; malformed input returns an error naming the
// byte offset instead of panicking — these buffers cross the transport, so
// a corrupted or truncated payload must surface as a retryable error.
func decodeTriples[T any](dst []spmat.Triple[T], part []byte, codec Codec[T]) ([]spmat.Triple[T], error) {
	dst = slices.Grow(dst, len(part)/(16+codec.Width))
	r := wire.NewReader(part)
	for r.More() {
		row, col := spmat.Index(r.U64()), spmat.Index(r.U64())
		if val := r.Take(uint64(codec.Width)); val != nil {
			v, _ := codec.Decode(val)
			dst = append(dst, spmat.Triple[T]{Row: row, Col: col, Val: v})
		}
	}
	return dst, r.Err()
}

// TryNNZ returns the global nonzero count (collective); it fails with the
// abort cause when the cluster aborts mid-reduce.
func (m *Mat[T]) TryNNZ() (int64, error) {
	return m.Grid.Comm.TryAllreduceInt64("sum", int64(m.Local.NNZ()))
}

// GatherTriples collects the full matrix as global-index triples on grid
// rank 0 (nil elsewhere). Collective; for tests, output and small data.
func (m *Mat[T]) GatherTriples() ([]spmat.Triple[T], error) {
	ts := m.Local.ToTriples()
	buf := make([]byte, 0, len(ts)*(16+m.codec.Width))
	rowOff, colOff := m.RowOffset(), m.ColOffset()
	for _, t := range ts {
		buf = appendTriple(buf, t.Row+rowOff, t.Col+colOff, t.Val, m.codec)
	}
	parts, err := m.Grid.Comm.TryGatherv(0, buf)
	if err != nil || parts == nil {
		return nil, err
	}
	var out []spmat.Triple[T]
	for src, part := range parts {
		if out, err = decodeTriples(out, part, m.codec); err != nil {
			return nil, fmt.Errorf("dmat: triples from rank %d: %w", src, err)
		}
	}
	return out, nil
}

// BlockWireBytes is the exact byte length EncodeBlock produces for a block
// under a fixed-width codec: a 32-byte header, an 8-byte checksum frame,
// 8 bytes per nonempty column for JC, 8 per CP entry (ncols+1), 8 per
// nonzero for IR, and width per value. The shared-memory backend charges
// the virtual clock with this size instead of encoding, which is what keeps
// its accounting bit-equal to the codec backend's.
func BlockWireBytes[T any](b *spmat.DCSC[T], width int) int64 {
	return blockHeaderLen + int64(len(b.JC))*16 + 8 + int64(b.NNZ())*int64(8+width)
}

// The block wire format: a 32-byte shape header (NumRows, NumCols, ncols,
// nnz as LE u64), an 8-byte FNV-style checksum of the shape header and the
// payload, then the JC/CP/IR arrays as LE u64 and the values under the
// codec. The checksum is unconditional — it is part of the format, not of
// the fault injector — so the shared backend's analytic wire size and the
// codec backend's real payloads stay bit-equal whether or not a fault plan
// is armed; a future multi-process transport gets corruption detection for
// free.
const blockHeaderLen = 40

// blockChecksum chains the shape header and the payload, skipping the
// checksum slot between them.
func blockChecksum(buf []byte) uint64 {
	return wire.Checksum(wire.Checksum(wire.ChecksumInit, buf[:32]), buf[blockHeaderLen:])
}

// EncodeBlock serializes a local DCSC — for broadcast within SUMMA, for the
// transpose exchange and for the persistent index's sections — by writing
// the compressed arrays directly (CombBLAS ships CSC arrays the same way);
// no re-sorting is needed on the receiving side. The buffer is sized
// exactly up front (BlockWireBytes) and the index arrays are written by
// offset rather than element-at-a-time appends.
func EncodeBlock[T any](b *spmat.DCSC[T], codec Codec[T]) []byte {
	ncols := len(b.JC)
	nnz := b.NNZ()
	fixed := blockHeaderLen + ncols*16 + 8 + nnz*8
	buf := make([]byte, fixed, fixed+nnz*codec.Width)
	wire.PutU64(buf[0:], uint64(b.NumRows))
	wire.PutU64(buf[8:], uint64(b.NumCols))
	wire.PutU64(buf[16:], uint64(ncols))
	wire.PutU64(buf[24:], uint64(nnz))
	off := blockHeaderLen
	for _, c := range b.JC {
		wire.PutU64(buf[off:], uint64(c))
		off += 8
	}
	for _, p := range b.CP {
		wire.PutU64(buf[off:], uint64(p))
		off += 8
	}
	for _, r := range b.IR {
		wire.PutU64(buf[off:], uint64(r))
		off += 8
	}
	for _, v := range b.Vals {
		buf = codec.Append(buf, v)
	}
	wire.PutU64(buf[32:], blockChecksum(buf))
	return buf
}

// DecodeBlock is EncodeBlock's inverse. The payload crossed a transport or a
// disk: every count is checked against the bytes present before it sizes an
// allocation, and anything but the encoder's exact image is an error.
func DecodeBlock[T any](buf []byte, codec Codec[T]) (*spmat.DCSC[T], error) {
	if err := codec.check(); err != nil {
		return nil, err
	}
	if len(buf) < blockHeaderLen {
		return nil, fmt.Errorf("dmat: truncated block header: %d bytes, need %d", len(buf), blockHeaderLen)
	}
	r := wire.NewReader(buf)
	m := &spmat.DCSC[T]{NumRows: spmat.Index(r.U64()), NumCols: spmat.Index(r.U64())}
	ncols64, nnz64 := r.U64(), r.U64()
	if want, got := r.U64(), blockChecksum(buf); want != got {
		return nil, fmt.Errorf("dmat: block checksum mismatch (stored %#x, computed %#x): corrupt payload", want, got)
	}
	// Each column entry costs >= 16 bytes and each nonzero >= 8, so counts
	// larger than the payload itself are malformed regardless of overflow —
	// checked before they size an allocation.
	if ncols64 > uint64(r.Len()) || nnz64 > uint64(r.Len()) ||
		(ncols64*2+1+nnz64)*8 > uint64(r.Len()) {
		return nil, fmt.Errorf("dmat: block header claims %d columns / %d nonzeros in %d payload bytes",
			ncols64, nnz64, r.Len())
	}
	ncols, nnz := int(ncols64), int(nnz64)
	m.JC = make([]spmat.Index, ncols)
	wire.U64s(r, m.JC)
	m.CP = make([]int, ncols+1)
	wire.U64s(r, m.CP)
	if ncols > 0 && (m.CP[0] != 0 || m.CP[ncols] != nnz) {
		return nil, fmt.Errorf("dmat: block column pointers [%d..%d] inconsistent with %d nonzeros",
			m.CP[0], m.CP[ncols], nnz)
	}
	m.IR = make([]spmat.Index, nnz)
	wire.U64s(r, m.IR)
	// A block message carries exactly one block: nnz values of the codec's
	// width and not a byte more.
	vals := r.Take(uint64(nnz) * uint64(codec.Width))
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("dmat: block values (%d nonzeros of width %d): %w", nnz, codec.Width, err)
	}
	m.Vals = make([]T, nnz)
	for i := range m.Vals {
		m.Vals[i], _ = codec.Decode(vals[i*codec.Width:])
	}
	return m, nil
}

// BcastBlock broadcasts blk (non-nil on the root rank of comm only) with
// the grid's transport backend and returns every rank's view of it. On the
// shared backend the result aliases the root's block — read-only by
// contract; on the codec backend receivers decode a private copy while the
// root reuses its own block without a decode round-trip. Clock charges are
// identical either way.
func BcastBlock[T any](g *Grid, comm *mpi.Comm, root int, blk *spmat.DCSC[T], codec Codec[T]) (*spmat.DCSC[T], error) {
	if err := codec.check(); err != nil {
		return nil, err
	}
	if g.Backend == BackendShared {
		var wire int64
		if comm.Rank() == root {
			wire = BlockWireBytes(blk, codec.Width)
		}
		return mpi.TryBcastShared(comm, root, blk, wire)
	}
	var payload []byte
	if comm.Rank() == root {
		payload = EncodeBlock(blk, codec)
	}
	payload, err := comm.TryBcast(root, payload)
	if err != nil {
		return nil, err
	}
	if comm.Rank() == root {
		// The root's resident block is bitwise what every receiver decodes;
		// re-decoding its own payload would only clone it.
		return blk, nil
	}
	return DecodeBlock(payload, codec)
}

// SpGEMMOpts tunes the distributed multiply.
type SpGEMMOpts struct {
	// Threads is the intra-rank thread count for the local multiply
	// (chunked over B's nonempty columns; <= 1 is serial). Results are
	// bit-identical for every value; the virtual clock charges flops as
	// parallel work (Clock.ParOps).
	Threads int
}

// DefaultSpGEMMOpts multiplies serially.
func DefaultSpGEMMOpts() SpGEMMOpts { return SpGEMMOpts{} }

// SpGEMM computes C = A·B over semiring sr with 2D Sparse SUMMA: q stages,
// each broadcasting one block column of A along grid rows and one block row
// of B along grid columns, followed by a local semiring multiply; stage
// products merge with sr.Add. Collective over the grid. Implemented as the
// full-width special case of the panel engine.
func SpGEMM[A, B, C any](a *Mat[A], b *Mat[B], sr spmat.Semiring[A, B, C],
	codecC Codec[C], opts SpGEMMOpts) (*Mat[C], error) {
	return spGEMMCols(a, b, sr, codecC, opts, 0, b.Local.NumCols)
}

// PanelRange returns the half-open block-local column range of panel k of
// `blocks` within this rank's block: every block column of the grid splits
// its own width uniformly (ceiling-based, like BlockRange). Panels are
// therefore unions of per-block slices rather than globally contiguous
// column ranges — the decomposition the extreme-scale follow-up paper's
// batched pipeline uses, because it keeps every wave's multiply work spread
// across the whole grid (a contiguous global range with blocks >= q would
// land each wave on a single grid column and serialize the idle time).
func (m *Mat[T]) PanelRange(blocks, k int) (lo, hi spmat.Index) {
	return BlockRange(m.Local.NumCols, blocks, k)
}

// SpGEMMPanel computes panel k of `blocks` of C = A·B: on every rank, the
// output columns b.PanelRange(blocks, k) of its block. The SUMMA stage
// structure is exactly SpGEMM's with each broadcast block row of B sliced
// to the panel (spmat.ColRange); SUMMA over a column slice of B is SUMMA of
// the sliced operand. The result keeps the full distributed shape with
// nonzeros only in the panel, so per-rank panels taken at k = 0..blocks-1
// concatenate to precisely the monolithic product — the invariant that
// makes the blocked wave pipeline bit-identical to the one-shot one. A's
// block columns are re-broadcast for every panel; that extra broadcast
// volume, traded for the smaller live output, is the knob the memory-
// bounded pipeline turns. Collective over the grid.
func SpGEMMPanel[A, B, C any](a *Mat[A], b *Mat[B], sr spmat.Semiring[A, B, C],
	codecC Codec[C], opts SpGEMMOpts, blocks, k int) (*Mat[C], error) {

	if blocks < 1 || k < 0 || k >= blocks {
		return nil, fmt.Errorf("dmat: SpGEMM panel %d of %d", k, blocks)
	}
	lo, hi := b.PanelRange(blocks, k)
	return spGEMMCols(a, b, sr, codecC, opts, lo, hi)
}

// spGEMMCols is the SUMMA engine behind SpGEMM and SpGEMMPanel: it computes
// the output columns covered by the block-local range [localLo, localHi) of
// B's columns (clamped to the block width; the range must be the same on
// every rank of each grid column, which both callers guarantee by deriving
// it from the block width alone).
func spGEMMCols[A, B, C any](a *Mat[A], b *Mat[B], sr spmat.Semiring[A, B, C],
	codecC Codec[C], opts SpGEMMOpts, localLo, localHi spmat.Index) (*Mat[C], error) {

	if a.Grid != b.Grid {
		return nil, fmt.Errorf("dmat: SpGEMM operands on different grids")
	}
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("dmat: SpGEMM inner dimension %d vs %d", a.Cols, b.Rows)
	}
	if err := codecC.check(); err != nil {
		return nil, err
	}
	g := a.Grid
	clock := g.Comm.Clock()
	localLo = clampIndex(localLo, 0, b.Local.NumCols)
	localHi = clampIndex(localHi, localLo, b.Local.NumCols)

	// The modeled machine accumulates stage products as a triple buffer and
	// the ledger charges that; here they stay DCSC and are merged once.
	var tripleC spmat.Triple[C]
	tripleBytes := int64(unsafe.Sizeof(tripleC))
	prods := make([]*spmat.DCSC[C], 0, g.Q)
	var accumNNZ int64
	for s := 0; s < g.Q; s++ {
		// A's block column s travels along each grid row.
		var aSend *spmat.DCSC[A]
		if g.MyCol == s {
			aSend = a.Local
		}
		aBlk, err := BcastBlock(g, g.RowComm, s, aSend, a.codec)
		if err != nil {
			return nil, fmt.Errorf("dmat: stage %d broadcast A: %w", s, err)
		}
		// The modeled machine materializes received blocks for the stage (the
		// root reuses its resident one, so it allocates nothing).
		var transient int64
		if g.MyCol != s {
			transient = aBlk.Bytes()
		}
		// B's block row s, restricted to the panel, travels along each grid
		// column. Over the full range the slice is the whole block, so
		// SpGEMM's communication volume is unchanged.
		var bSend *spmat.DCSC[B]
		if g.MyRow == s {
			bSend = b.Local.ColRange(localLo, localHi)
		}
		bBlk, err := BcastBlock(g, g.ColComm, s, bSend, b.codec)
		if err != nil {
			return nil, fmt.Errorf("dmat: stage %d broadcast B: %w", s, err)
		}
		if g.MyRow != s {
			transient += bBlk.Bytes()
		}
		clock.AllocBytes(transient)

		prod, stats, err := spmat.SpGEMM(aBlk, bBlk, sr, spmat.SpGEMMOpts{Threads: opts.Threads})
		if err != nil {
			return nil, fmt.Errorf("dmat: stage %d multiply: %w", s, err)
		}
		clock.ParOps(float64(stats.Flops) * FlopOps)
		prods = append(prods, prod)
		accumNNZ += int64(prod.NNZ())
		clock.AllocBytes(int64(prod.NNZ()) * tripleBytes)
		clock.FreeBytes(transient)
	}
	// The stage-product multiway merge is threaded in the modeled
	// implementation (CombBLAS's hybrid SpGEMM), so its cost parallelizes
	// with the same thread count as the multiplies.
	clock.ParOps(float64(accumNNZ) * BuildOps)

	local, err := spmat.MergeAdd(prods, sr.Add)
	if err != nil {
		return nil, err
	}
	// Assembly holds the triple buffer and the compressed result at once;
	// charge the result before retiring the triples so the ledger sees that
	// double residency (panelized multiplies pay it per panel, monolithic
	// ones for the whole product — the transient the blocked pipeline
	// exists to shrink).
	m := &Mat[C]{Grid: g, Rows: a.Rows, Cols: b.Cols, Local: local, codec: codecC}
	clock.AllocBytes(m.LocalBytes())
	clock.FreeBytes(accumNNZ * tripleBytes)
	return m, nil
}

func clampIndex(x, lo, hi spmat.Index) spmat.Index {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Transpose returns Aᵀ: each block transposes locally and moves to its
// mirrored grid position via one all-to-all. Collective. The local
// transpose is an elementwise pass and parallelizes with the rank's
// declared threads, matching the SpGEMM/align charging convention.
func (m *Mat[T]) Transpose() (*Mat[T], error) {
	g := m.Grid
	clock := g.Comm.Clock()
	tBlock := m.Local.Transpose()
	clock.ParOps(float64(m.Local.NNZ()) * BuildOps)

	// The transposed block goes to the mirror rank, which adopts it: the
	// sender gives it up (its own new block arrives from the partner; a
	// diagonal rank's comes right back).
	partner := g.RankOf(g.MyCol, g.MyRow)
	parts := make([]*spmat.DCSC[T], g.Comm.Size())
	parts[partner] = tBlock
	parts, err := alltoall(g, parts,
		func(b *spmat.DCSC[T]) int64 {
			if b == nil {
				return 0
			}
			return BlockWireBytes(b, m.codec.Width)
		},
		func(b *spmat.DCSC[T]) []byte { return EncodeBlock(b, m.codec) },
		func(buf []byte) (*spmat.DCSC[T], error) { return DecodeBlock(buf, m.codec) })
	if err != nil {
		return nil, err
	}
	local := parts[partner]
	out := &Mat[T]{Grid: g, Rows: m.Cols, Cols: m.Rows, Local: local, codec: m.codec}
	clock.AllocBytes(out.LocalBytes())
	return out, nil
}

// EWiseAdd merges two identically-shaped distributed matrices block-wise.
func EWiseAdd[T any](a, b *Mat[T], add func(T, T) T) (*Mat[T], error) {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Grid != b.Grid {
		return nil, fmt.Errorf("dmat: EWiseAdd mismatch")
	}
	local, err := spmat.EWiseAdd(a.Local, b.Local, add)
	if err != nil {
		return nil, err
	}
	clock := a.Grid.Comm.Clock()
	clock.Ops(float64(local.NNZ()) * BuildOps)
	out := &Mat[T]{Grid: a.Grid, Rows: a.Rows, Cols: a.Cols, Local: local, codec: a.codec}
	clock.AllocBytes(out.LocalBytes())
	return out, nil
}

// ColumnCounts returns, for every nonempty global column of this rank's
// block-column range, the total nonzero count across the whole grid column.
// A global column is split across the q blocks of one grid column, so one
// allgather over ColComm suffices. Collective over the grid.
func (m *Mat[T]) ColumnCounts() (map[spmat.Index]int64, error) {
	colOff := m.ColOffset()
	local := make(map[spmat.Index]int64, m.Local.NonemptyCols())
	for c, col := range m.Local.JC {
		local[col+colOff] += int64(m.Local.CP[c+1] - m.Local.CP[c])
	}
	buf := make([]byte, 0, 16*len(local))
	// Serialize deterministically (sorted by column id).
	cols := make([]spmat.Index, 0, len(local))
	for col := range local {
		cols = append(cols, col)
	}
	sortIndices(cols)
	for _, col := range cols {
		buf = wire.AppendU64(buf, uint64(col))
		buf = wire.AppendU64(buf, uint64(local[col]))
	}
	parts, err := m.Grid.ColComm.TryAllgather(buf)
	if err != nil {
		return nil, err
	}
	total := make(map[spmat.Index]int64, len(local)*2)
	for src, part := range parts {
		if err := wire.Pairs(part, func(col, n uint64) { total[spmat.Index(col)] += int64(n) }); err != nil {
			return nil, fmt.Errorf("dmat: column counts from rank %d: %w", src, err)
		}
	}
	m.Grid.Comm.Clock().Ops(float64(len(total)) * 4)
	return total, nil
}

func sortIndices(xs []spmat.Index) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// Prune filters nonzeros locally with the predicate on global indices: an
// elementwise pass, ParOps-charged per source nonzero (it parallelizes with
// the rank's declared threads, the convention SpGEMM and alignment use) and
// alloc-tracked like every constructor.
func (m *Mat[T]) Prune(keep func(row, col spmat.Index, v T) bool) *Mat[T] {
	rowOff, colOff := m.RowOffset(), m.ColOffset()
	local := m.Local.Prune(func(r, c spmat.Index, v T) bool {
		return keep(r+rowOff, c+colOff, v)
	})
	clock := m.Grid.Comm.Clock()
	clock.ParOps(float64(m.Local.NNZ()) * VisitOps)
	out := &Mat[T]{Grid: m.Grid, Rows: m.Rows, Cols: m.Cols, Local: local, codec: m.codec}
	clock.AllocBytes(out.LocalBytes())
	return out
}
