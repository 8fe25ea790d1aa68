// Package dmat implements 2D block-distributed sparse matrices over the mpi
// substrate: the CombBLAS layer of the paper. Matrices live on a √p×√p
// process grid; SpGEMM uses the 2D Sparse SUMMA algorithm (Buluç & Gilbert
// 2012) with semiring-generic local kernels from spmat; transpose is a
// pairwise block exchange; construction (NewFromChunks) moves entries as
// columns along a grid row, then a grid column, after an owner census of
// each column's entries where the build keeps only some columns.
package dmat

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
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
	// MirrorComm holds this rank and its mirror (MyCol, MyRow), lower world
	// rank first — the one exchange of a transpose; a diagonal rank's holds
	// itself alone.
	MirrorComm *mpi.Comm
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
	if g.MirrorComm, err = c.TrySplit(min(c.Rank(), g.RankOf(g.MyCol, g.MyRow)), c.Rank()); err != nil {
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
// SpGEMM's result codec, bcastRows, DecodeBlock — calls it, so a Mat's own
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

// alltoall is dmat's one all-to-all: parts[j] goes to rank j of comm, a
// communicator of the grid, and the result holds what every rank sent here
// (the zero P where a rank sent nothing). A part that fails to decode is
// named by its sender's world rank. On the shared backend parts move by
// reference, charged size(p) wire bytes each; on the codec backend they
// travel as encode(p) — exactly size(p) bytes, so the two backends bill
// alike — and come back through decode. A part of size 0 is absent, and a
// rank's part for itself is not traffic: it is handed back as is on either
// backend.
func alltoall[P any](g *Grid, comm *mpi.Comm, parts []P, size func(P) int64,
	encode func(P) []byte, decode func([]byte) (P, error)) ([]P, error) {

	me := comm.Rank()
	if g.Backend == BackendShared {
		sizes := make([]int64, len(parts))
		for j, p := range parts {
			sizes[j] = size(p)
		}
		return mpi.TryAlltoallvShared(comm, parts, sizes)
	}
	bufs := make([][]byte, len(parts))
	for j, p := range parts {
		if j != me && size(p) > 0 {
			bufs[j] = encode(p)
		}
	}
	got, err := comm.TryAlltoallv(bufs)
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
			return nil, fmt.Errorf("dmat: part from rank %d: %w", g.worldRank(comm, src), err)
		}
	}
	return out, nil
}

// worldRank names rank src of comm, one of g's communicators, by its rank in
// g.Comm.
func (g *Grid) worldRank(comm *mpi.Comm, src int) int {
	switch comm {
	case g.RowComm:
		return g.RankOf(g.MyRow, src)
	case g.ColComm:
		return g.RankOf(src, g.MyCol)
	case g.MirrorComm:
		me, mirror := g.Comm.Rank(), g.RankOf(g.MyCol, g.MyRow)
		return []int{min(me, mirror), max(me, mirror)}[src]
	}
	return src
}

// TryNNZ returns the global nonzero count (collective); it fails with the
// abort cause when the cluster aborts mid-reduce.
func (m *Mat[T]) TryNNZ() (int64, error) {
	return m.Grid.Comm.TryAllreduceInt64("sum", int64(m.Local.NNZ()))
}

// GatherTriples collects the full matrix as global-index triples on grid
// rank 0 (nil elsewhere): each rank's block crosses as one entry part, ids
// and rows at 8 bytes. Collective; for tests, output and small data.
func (m *Mat[T]) GatherTriples() ([]spmat.Triple[T], error) {
	ts := m.Local.ToTriples()
	e := entries[uint64, uint64, T]{make([]uint64, len(ts)), make([]uint64, len(ts)), make([]T, len(ts))}
	rowOff, colOff := m.RowOffset(), m.ColOffset()
	for i, t := range ts {
		e.ids[i], e.rows[i], e.vals[i] = uint64(t.Col+colOff), uint64(t.Row+rowOff), t.Val
	}
	parts, err := m.Grid.Comm.TryGatherv(0, appendEntries(nil, e, 8, 8, m.codec))
	if err != nil || parts == nil {
		return nil, err
	}
	var out []spmat.Triple[T]
	for src, part := range parts {
		if e, err = decodeEntries[uint64, uint64](part, 8, 8, m.codec); err != nil {
			return nil, fmt.Errorf("dmat: triples from rank %d: %w", src, err)
		}
		for i, id := range e.ids {
			out = append(out, spmat.Triple[T]{Row: spmat.Index(e.rows[i]), Col: spmat.Index(id), Val: e.vals[i]})
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
	return blockWire(len(b.JC), b.NNZ(), width)
}

// blockWire is BlockWireBytes of a block with ncols nonempty columns and nnz
// nonzeros.
func blockWire(ncols, nnz, width int) int64 {
	return blockHeaderLen + int64(ncols)*16 + 8 + int64(nnz)*int64(8+width)
}

// blockBytes is spmat.DCSC.Bytes of a block with ncols nonempty columns and
// nnz nonzeros: what a receiver materializes when it decodes one.
func blockBytes[T any](ncols, nnz int) int64 {
	var zero T
	return int64(ncols)*16 + 8 + int64(nnz)*(8+int64(unsafe.Sizeof(zero)))
}

// rowsBelow counts the nonzeros of compressed column c (pointers cp, rows
// ir) whose row is below hi. The first row is tested without a branch, so a
// column of one row — most of a k-mer block's — costs no mispredicted jump
// however its rows fall; a longer column scans on from there, which costs
// no more than the rows it keeps.
func rowsBelow(cp []int, ir []spmat.Index, c int, hi spmat.Index) int {
	lo, end := cp[c], cp[c+1]
	n := lo + b2i(lo < end && ir[lo] < hi)
	if end-lo > 1 {
		for n < end && ir[n] < hi {
			n++
		}
	}
	return n - lo
}

func b2i(x bool) int {
	if x {
		return 1
	}
	return 0
}

// rowPrefix counts the nonempty columns and nonzeros of b's rows [0, hi).
func rowPrefix[T any](b *spmat.DCSC[T], hi spmat.Index) (ncols, nnz int) {
	if hi >= b.NumRows {
		return len(b.JC), b.NNZ()
	}
	for c := range b.JC {
		n := rowsBelow(b.CP, b.IR, c, hi)
		ncols += b2i(n > 0)
		nnz += n
	}
	return ncols, nnz
}

// cutRows is rowPrefix for the encoder, hi below b.NumRows: it cuts each
// column once and lists, reusing cut, each kept column's slot in b and the
// end of its kept run of nonzeros (the run starts at CP[slot]).
func cutRows[T any](b *spmat.DCSC[T], hi spmat.Index, cut []int) (kept []int, nnz int) {
	cut = slices.Grow(cut[:0], 2*len(b.JC))[:2*len(b.JC)]
	k := 0
	for c := range b.JC {
		n := rowsBelow(b.CP, b.IR, c, hi)
		cut[k], cut[k+1] = c, b.CP[c]+n
		k += 2 * b2i(n > 0)
		nnz += n
	}
	return cut[:k], nnz
}

// cuts recycles cutRows' lists between prefix encodes.
var cuts = sync.Pool{New: func() any { return new([]int) }}

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

// nativeWords reports that the frame's u64 arrays are this host's own
// []int64 and []int memory: a little-endian host with a 64-bit int. Every
// section of a frame starts a multiple of 8 bytes in, so on such a host a
// frame that starts 8-byte aligned can be read as its arrays.
var nativeWords = unsafe.Sizeof(int(0)) == 8 && binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// aligned8 reports whether b starts on an 8-byte boundary, as every
// encoder output and tcp frame body does (the allocator aligns them).
func aligned8(b []byte) bool { return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 }

// asBytes is the memory of s.
func asBytes[E any](s []E) []byte {
	var zero E
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(zero))
}

// view is b read as len(b)/size(E) values of E, sharing b's memory; b must
// be aligned for E and E must hold no pointers.
func view[E any](b []byte) []E {
	var zero E
	return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b))/unsafe.Sizeof(zero))
}

// putWords writes src as LE u64s at the front of dst: one copy when the
// host's words are the frame's.
func putWords[E ~int | ~int64](dst []byte, src []E) {
	if nativeWords {
		copy(dst, asBytes(src))
		return
	}
	for i, v := range src {
		wire.PutU64(dst[8*i:], uint64(v))
	}
}

// words reads n u64s from r: a view of the frame when inPlace, else a copy.
// DecodeBlock's count check has already bounded every read it makes.
func words[E ~int | ~int64](r *wire.Reader, n int, inPlace bool) []E {
	if inPlace {
		return view[E](r.Take(8 * uint64(n)))
	}
	dst := make([]E, n)
	wire.U64s(r, dst)
	return dst
}

// probes are the byte patterns rawValues checks a codec against: every byte
// of each differs from its neighbours, so only a codec that moves no byte
// passes.
var probes = func() (p [2][64]byte) {
	for i := range p[0] {
		p[0][i], p[1][i] = byte(i+1), byte(0xff-3*i)
	}
	return p
}()

// rawValues reports whether a codec's wire form of a value is the value's
// own memory, so a frame's values can be read in place — and, given scratch
// with room for one value, written as their memory: T is plain, Width is its
// size, Decode returns each probe pattern's bytes as they are, and Append
// writes them back. A codec of little-endian integer fields in declaration
// order, with no padding, passes on a little-endian host (Int32Codec, and
// core's PosDist and Overlap codecs); any other takes the per-value path.
func rawValues[T any](codec Codec[T], scratch []byte) bool {
	var v T
	w := codec.Width
	if uintptr(w) != unsafe.Sizeof(v) || w > len(probes[0]) || !plain(reflect.TypeFor[T]()) {
		return false
	}
	for i := range probes {
		p := probes[i][:w]
		var n int
		if v, n = codec.Decode(p); n != w || !bytes.Equal(unsafe.Slice((*byte)(unsafe.Pointer(&v)), w), p) {
			return false
		}
		if scratch != nil && !bytes.Equal(codec.Append(scratch[:0], v), p) {
			return false
		}
	}
	return true
}

// plain reports whether every bit pattern of t's size is a value of t:
// numbers, and arrays and structs of them — no pointer, no bool.
func plain(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Array:
		return plain(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !plain(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// EncodeBlock serializes a local DCSC — for broadcast within SUMMA, for the
// transpose exchange and for the persistent index's sections — by writing
// the compressed arrays directly (CombBLAS ships CSC arrays the same way);
// no re-sorting is needed on the receiving side. The buffer is sized
// exactly up front (BlockWireBytes); on a little-endian host each array
// goes in as one copy of its memory, and so do the values when their codec
// writes their memory (rawValues).
func EncodeBlock[T any](b *spmat.DCSC[T], codec Codec[T]) []byte {
	return encodeRows(b, b.NumRows, codec)
}

// encodeRows is EncodeBlock of b's rows [0, hi) — the block a SUMMA stage
// broadcasts when its panel needs only a row prefix — written straight from
// b with no copy of the prefix: one pass (cutRows) cuts every column and
// lists what it keeps, and the writer copies that. The image keeps b's
// shape, so it decodes to the block with every row from hi on dropped; hi
// at or past b.NumRows encodes all of b, each array as one copy.
func encodeRows[T any](b *spmat.DCSC[T], hi spmat.Index, codec Codec[T]) []byte {
	ncols, nnz := len(b.JC), b.NNZ()
	var cut *[]int
	if hi < b.NumRows {
		cut = cuts.Get().(*[]int)
		defer cuts.Put(cut)
		*cut, nnz = cutRows(b, hi, *cut)
		ncols = len(*cut) / 2
	}
	jc := blockHeaderLen
	cp := jc + ncols*8
	ir := cp + ncols*8 + 8
	vals := ir + nnz*8
	total := vals + nnz*codec.Width
	// Values are appended in order through the codec, or stored at their
	// offsets as their memory when the codec writes that.
	buf := make([]byte, vals, total)
	raw := nnz > 0 && aligned8(buf) && rawValues(codec, buf[vals:total])
	if raw {
		buf = buf[:total]
	}
	wire.PutU64(buf[0:], uint64(b.NumRows))
	wire.PutU64(buf[8:], uint64(b.NumCols))
	wire.PutU64(buf[16:], uint64(ncols))
	wire.PutU64(buf[24:], uint64(nnz))
	if cut == nil {
		putWords(buf[jc:], b.JC)
		putWords(buf[cp:], b.CP[:ncols])
		putWords(buf[ir:], b.IR)
		if raw {
			copy(buf[vals:], asBytes(b.Vals[:nnz]))
		} else {
			for _, v := range b.Vals[:nnz] {
				buf = codec.Append(buf, v)
			}
		}
	} else {
		var out []T
		if raw {
			out = view[T](buf[vals:])
		}
		kept, n := *cut, 0
		for i := 0; i < len(kept); i += 2 {
			c, end := kept[i], kept[i+1]
			wire.PutU64(buf[jc+4*i:], uint64(b.JC[c]))
			wire.PutU64(buf[cp+4*i:], uint64(n))
			for k := b.CP[c]; k < end; k++ {
				wire.PutU64(buf[ir+8*n:], uint64(b.IR[k]))
				if raw {
					out[n] = b.Vals[k]
				} else {
					buf = codec.Append(buf, b.Vals[k])
				}
				n++
			}
		}
	}
	wire.PutU64(buf[cp+8*ncols:], uint64(nnz))
	wire.PutU64(buf[32:], blockChecksum(buf))
	return buf
}

// DecodeBlock is EncodeBlock's inverse. The payload crossed a transport or a
// disk: every count is checked against the bytes present before it sizes an
// allocation, and anything but the encoder's exact image is an error.
//
// On a little-endian host a frame that starts 8-byte aligned is not copied:
// the block's JC, CP and IR — and its values, when their codec writes their
// memory (rawValues) — are views of buf, so buf becomes the block's backing
// array and must not change while the block lives. Such a block is read-only
// by the contract every received block keeps (a shared-backend block
// aliases its sender's). Another byte order, or a misaligned buffer (an
// index section behind a name of odd length), takes the copy path.
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
	inPlace := nativeWords && aligned8(buf)
	m.JC = words[spmat.Index](r, ncols, inPlace)
	m.CP = words[int](r, ncols+1, inPlace)
	if m.CP[0] != 0 || m.CP[ncols] != nnz {
		return nil, fmt.Errorf("dmat: block column pointers [%d..%d] inconsistent with %d nonzeros",
			m.CP[0], m.CP[ncols], nnz)
	}
	m.IR = words[spmat.Index](r, nnz, inPlace)
	if err := checkDCSC(m); err != nil {
		return nil, err
	}
	// A block message carries exactly one block: nnz values of the codec's
	// width and not a byte more.
	vals := r.Take(uint64(nnz) * uint64(codec.Width))
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("dmat: block values (%d nonzeros of width %d): %w", nnz, codec.Width, err)
	}
	if inPlace && rawValues(codec, nil) {
		m.Vals = view[T](vals)
		return m, nil
	}
	m.Vals = make([]T, nnz)
	for i := range m.Vals {
		m.Vals[i], _ = codec.Decode(vals[i*codec.Width:])
	}
	return m, nil
}

// checkDCSC rejects a decoded block that breaks the DCSC invariants the
// encoder and the multiply rely on: columns ascending inside the shape, each
// nonempty, rows ascending within a column inside the shape. A checksummed
// payload can still carry such a block if its sender was faulty. CP[0] == 0
// and CP[ncols] == nnz are checked already; one pass over the columns checks
// the rest, each column's pointers before its rows.
func checkDCSC[T any](m *spmat.DCSC[T]) error {
	prev := spmat.Index(-1)
	for c, col := range m.JC {
		lo, end := m.CP[c], m.CP[c+1]
		if col <= prev || col >= m.NumCols || lo >= end || end > len(m.IR) {
			return fmt.Errorf("dmat: block column %d (index %d) is out of order, out of range or empty", c, col)
		}
		prev = col
		row := spmat.Index(-1)
		for _, r := range m.IR[lo:end] {
			if r <= row {
				return fmt.Errorf("dmat: block row %d in column %d is out of order or out of range", r, col)
			}
			row = r
		}
		if row >= m.NumRows {
			return fmt.Errorf("dmat: block row %d in column %d is out of order or out of range", row, col)
		}
	}
	return nil
}

// sharedRows is a row-prefix broadcast's part on the shared backend: the
// root's whole block by reference, and the size of the prefix it stands for.
type sharedRows[T any] struct {
	blk        *spmat.DCSC[T]
	ncols, nnz int
}

// bcastRows broadcasts the rows [0, hi) of blk (non-nil on the root rank of
// comm only) with the grid's transport backend and returns every rank's view
// of it, with the bytes the view materialized on this rank (the stage
// transient; 0 on the root, which reuses its resident block). hi at or past
// blk.NumRows broadcasts the whole block. On the shared backend every view
// is the root's whole block — read-only by contract — billed the prefix's
// wire size; a multiply over it must not reach past row hi. On the codec
// backend receivers decode the prefix alone, which the root encodes straight
// from its block, into a view of the payload where the host allows
// (DecodeBlock) — read-only as well. Clock charges are identical either way.
func bcastRows[T any](g *Grid, comm *mpi.Comm, root int, blk *spmat.DCSC[T], hi spmat.Index,
	codec Codec[T]) (*spmat.DCSC[T], int64, error) {

	if err := codec.check(); err != nil {
		return nil, 0, err
	}
	if g.Backend == BackendShared {
		var part sharedRows[T]
		var wire int64
		if comm.Rank() == root {
			part.blk = blk
			part.ncols, part.nnz = rowPrefix(blk, hi)
			wire = blockWire(part.ncols, part.nnz, codec.Width)
		}
		part, err := mpi.TryBcastShared(comm, root, part, wire)
		if err != nil || comm.Rank() == root {
			return part.blk, 0, err
		}
		return part.blk, blockBytes[T](part.ncols, part.nnz), nil
	}
	var payload []byte
	if comm.Rank() == root {
		payload = encodeRows(blk, hi, codec)
	}
	payload, err := comm.TryBcast(root, payload)
	if err != nil {
		return nil, 0, err
	}
	if comm.Rank() == root {
		// The root's resident block is bitwise what every receiver decodes;
		// re-decoding its own payload would only clone it.
		return blk, 0, nil
	}
	view, err := DecodeBlock(payload, codec)
	if err != nil {
		return nil, 0, err
	}
	return view, view.Bytes(), nil
}

// SpGEMMOpts tunes the distributed multiply.
type SpGEMMOpts struct {
	// Threads is the intra-rank thread count for the local multiply
	// (chunked over B's nonempty columns; <= 1 is serial). Results are
	// bit-identical for every value; the virtual clock charges flops as
	// parallel work (Clock.ParOps).
	Threads int
	// RowMax, when non-nil, bounds the output: block-local column j keeps
	// only block-local rows <= RowMax(j) (spmat.SpGEMMOpts.RowMax), so the
	// entries past it are never formed. The bound must not exceed j — the
	// rows a panel keeps are then a prefix of its columns — and must be set
	// alike on every rank: SpGEMMPanel then broadcasts only the row
	// operand's rows below the panel's end.
	RowMax func(j spmat.Index) spmat.Index
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
	return spGEMMCols(a, b, sr, codecC, opts, 0, b.Local.NumCols, a.Rows)
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
// bounded pipeline turns. With opts.RowMax set a stage broadcasts only A's
// local rows below the panel's end in the widest block column of the grid —
// a bound the rank's whole grid row agrees on and no rank's RowMax reaches
// past — so the early panels of a triangular sweep move a fraction of A.
// Collective over the grid.
func SpGEMMPanel[A, B, C any](a *Mat[A], b *Mat[B], sr spmat.Semiring[A, B, C],
	codecC Codec[C], opts SpGEMMOpts, blocks, k int) (*Mat[C], error) {

	if blocks < 1 || k < 0 || k >= blocks {
		return nil, fmt.Errorf("dmat: SpGEMM panel %d of %d", k, blocks)
	}
	lo, hi := b.PanelRange(blocks, k)
	rowHi := a.Rows
	if opts.RowMax != nil {
		_, widest := BlockRange(b.Cols, b.Grid.Q, 0)
		_, rowHi = BlockRange(widest, blocks, k)
	}
	return spGEMMCols(a, b, sr, codecC, opts, lo, hi, rowHi)
}

// spGEMMCols is the SUMMA engine behind SpGEMM and SpGEMMPanel: it computes
// the output columns covered by the block-local range [localLo, localHi) of
// B's columns (clamped to the block width; the range must be the same on
// every rank of each grid column, which both callers guarantee by deriving
// it from the block width alone). Each stage broadcasts A's block-local rows
// [0, rowHi) only.
func spGEMMCols[A, B, C any](a *Mat[A], b *Mat[B], sr spmat.Semiring[A, B, C],
	codecC Codec[C], opts SpGEMMOpts, localLo, localHi, rowHi spmat.Index) (*Mat[C], error) {

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
		// A's block column s, cut to the rows the panel can use, travels
		// along each grid row. The modeled machine materializes received
		// blocks for the stage (the root reuses its resident one, so it
		// allocates nothing).
		var aSend *spmat.DCSC[A]
		if g.MyCol == s {
			aSend = a.Local
		}
		aBlk, aBytes, err := bcastRows(g, g.RowComm, s, aSend, rowHi, a.codec)
		if err != nil {
			return nil, fmt.Errorf("dmat: stage %d broadcast A: %w", s, err)
		}
		// B's block row s, restricted to the panel, travels along each grid
		// column. Over the full range the slice is the whole block, so
		// SpGEMM's communication volume is unchanged.
		var bSend *spmat.DCSC[B]
		if g.MyRow == s {
			bSend = b.Local.ColRange(localLo, localHi)
		}
		bBlk, bBytes, err := bcastRows(g, g.ColComm, s, bSend, b.Rows, b.codec)
		if err != nil {
			return nil, fmt.Errorf("dmat: stage %d broadcast B: %w", s, err)
		}
		transient := aBytes + bBytes
		clock.AllocBytes(transient)

		prod, stats, err := spmat.SpGEMM(aBlk, bBlk, sr, spmat.SpGEMMOpts{Threads: opts.Threads, RowMax: opts.RowMax})
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
// mirrored grid position, one pairwise exchange on Grid.MirrorComm.
// Collective. The local transpose is an elementwise pass and parallelizes
// with the rank's declared threads, matching the SpGEMM/align charging
// convention.
func (m *Mat[T]) Transpose() (*Mat[T], error) {
	g := m.Grid
	clock := g.Comm.Clock()
	tBlock := m.Local.Transpose()
	clock.ParOps(float64(m.Local.NNZ()) * BuildOps)

	// The transposed block goes to the mirror rank, which adopts it: the
	// sender gives it up (its own new block arrives from the partner; a
	// diagonal rank, alone in its MirrorComm, gets its own right back).
	mc := g.MirrorComm
	partner := mc.Size() - 1 - mc.Rank()
	parts := make([]*spmat.DCSC[T], mc.Size())
	parts[partner] = tBlock
	parts, err := alltoall(g, mc, parts,
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

// ColumnCounts returns the nonempty global columns of this rank's
// block-column range in ascending order, with each one's nonzero count
// across the whole grid column. A global column is split across the q blocks
// of one grid column, so one allgather over ColComm of every block's
// (column, count) list — in JC order, hence sorted — and a q-way merge of
// the lists suffice. Collective over the grid.
func (m *Mat[T]) ColumnCounts() (cols []spmat.Index, counts []int64, err error) {
	b, colOff := m.Local, m.ColOffset()
	buf := make([]byte, 0, 16*len(b.JC))
	for c, col := range b.JC {
		buf = wire.AppendU64(buf, uint64(col+colOff))
		buf = wire.AppendU64(buf, uint64(b.CP[c+1]-b.CP[c]))
	}
	parts, err := m.Grid.ColComm.TryAllgather(buf)
	if err != nil {
		return nil, nil, err
	}
	lo, hi := BlockRange(m.Cols, m.Grid.Q, m.Grid.MyCol)
	if cols, counts, err = mergeColumnCounts(parts, lo, hi); err != nil {
		return nil, nil, err
	}
	m.Grid.Comm.Clock().Ops(float64(len(cols)) * 4)
	return cols, counts, nil
}

// mergeColumnCounts merges the grid column's (column, count) lists, each
// ascending within [lo, hi), summing the counts of a column several lists
// hold. A list that is not whole pairs, ascending and in range is rejected.
//
// Which list holds the next column is a coin toss on a census, so the merge
// takes no branch on it: every list's head is compared with the next column
// and advanced by the outcome, and a list's cursor stops at its last pair,
// whose head then reads as hi. A head is checked against the column before
// it when it is read.
func mergeColumnCounts(parts [][]byte, lo, hi spmat.Index) (cols []spmat.Index, counts []int64, err error) {
	type list struct {
		part           []byte
		src, off, last int    // sender; byte offset of the head pair and of the last pair
		col, n         uint64 // the head pair; hi and 0 once the list is taken
	}
	end := uint64(hi)
	lists := make([]list, 0, len(parts))
	total := 0
	for src, part := range parts {
		if len(part)%16 != 0 {
			return nil, nil, fmt.Errorf("dmat: column counts from rank %d: %d bytes", src, len(part))
		}
		if len(part) == 0 {
			continue
		}
		if col := wire.U64(part); col < uint64(lo) || col >= end {
			return nil, nil, fmt.Errorf("dmat: column counts from rank %d: column %d outside [%d, %d)", src, col, lo, hi)
		}
		lists = append(lists, list{part: part, src: src, last: len(part) - 16, col: wire.U64(part), n: wire.U64(part[8:])})
		total += len(part) / 16
	}
	cols, counts = make([]spmat.Index, total), make([]int64, total)
	next := end
	for i := range lists {
		next = min(next, lists[i].col)
	}
	k := 0
	for next != end {
		var n uint64
		following := end
		for i := range lists {
			l := &lists[i]
			var took int
			if l.col == next {
				took = 1
			}
			n += l.n & -uint64(took)
			off := l.off + 16*took
			at := min(off, l.last)
			col, cnt := wire.U64(l.part[at:]), wire.U64(l.part[at+8:])
			if off <= l.last && (col <= next || col >= end) {
				return nil, nil, fmt.Errorf("dmat: column counts from rank %d: column %d out of order or outside [%d, %d)",
					l.src, col, lo, hi)
			}
			if off > l.last {
				col, cnt = end, 0
			}
			l.off, l.col, l.n = off, col, cnt
			following = min(following, col)
		}
		cols[k], counts[k] = spmat.Index(next), int64(n)
		k++
		next = following
	}
	return cols[:k], counts[:k], nil
}
