// Package spmat provides local (per-process) sparse matrices generic over
// the nonzero type, supporting the semiring algebra PASTIS builds on.
//
// The primary storage format is DCSC — doubly compressed sparse column
// (Buluç & Gilbert 2008, paper Section IV-D) — which stores column pointers
// only for nonempty columns. This matters because the k-mer dimension of
// PASTIS matrices is |Σ|^k (191M for k=6): a conventional CSC column-pointer
// array would dwarf the nonzeros once the matrix is 2D-distributed and each
// process holds a hypersparse block with far fewer nonzeros than columns.
//
// SpGEMM has one local kernel, the hash accumulator (hash.go), exact over
// arbitrary semirings. The heap-based k-way merge CombBLAS mixes in lives
// on as the independent reference of the package's differential tests
// (heap_test.go).
package spmat

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/parallel"
)

// Index is the row/column index type. The k-mer dimension exceeds int32.
type Index = int64

// Triple is one nonzero element.
type Triple[T any] struct {
	Row, Col Index
	Val      T
}

// Semiring defines the two overloaded operators of a sparse matrix algebra
// (paper Section II-A). Multiply combines a left and right nonzero into the
// contribution to output position (i, j) — the row of a and the column of b,
// in the operands' own (block-local, when they are blocks) index space — so
// an algebra whose contribution depends on where it lands needs no second
// pass over the product; Add accumulates contributions for the same output
// position.
type Semiring[A, B, C any] struct {
	Multiply func(i, j Index, a A, b B) C
	Add      func(x, y C) C
}

// Arithmetic is the ordinary (+, *) semiring over float64.
var Arithmetic = Semiring[float64, float64, float64]{
	Multiply: func(_, _ Index, a, b float64) float64 { return a * b },
	Add:      func(x, y float64) float64 { return x + y },
}

// Counting maps every multiplication to 1 and adds: B = A·Aᵀ under Counting
// counts shared k-mers (the exact-match overlap detector of BELLA/PASTIS
// before positions are tracked).
func Counting[A, B any]() Semiring[A, B, int64] {
	return Semiring[A, B, int64]{
		Multiply: func(Index, Index, A, B) int64 { return 1 },
		Add:      func(x, y int64) int64 { return x + y },
	}
}

// DCSC is a doubly compressed sparse column matrix.
// JC lists the nonempty column ids in increasing order; column JC[c] holds
// rows IR[CP[c]:CP[c+1]] (increasing) with values Vals[CP[c]:CP[c+1]].
type DCSC[T any] struct {
	NumRows, NumCols Index
	JC               []Index
	CP               []int
	IR               []Index
	Vals             []T
}

// NNZ returns the number of stored nonzeros.
func (m *DCSC[T]) NNZ() int { return len(m.IR) }

// NonemptyCols returns the count of columns holding at least one nonzero.
func (m *DCSC[T]) NonemptyCols() int { return len(m.JC) }

// FromTriples builds a DCSC from an unordered triple list, accumulating
// duplicates with add in input order (a duplicate with add == nil is an
// error naming the entry). The one assembly rule: unordered input is
// radix-sorted once, here; input already in column-major order is not sorted
// at all. ts is reordered in place — the caller hands the slice over and
// must not rely on its order, or reuse it, afterwards.
func FromTriples[T any](rows, cols Index, ts []Triple[T], add func(T, T) T) (*DCSC[T], error) {
	var rowVar, colVar uint64
	sorted := true
	for i, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("spmat: triple (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols)
		}
		rowVar |= uint64(t.Row ^ ts[0].Row)
		colVar |= uint64(t.Col ^ ts[0].Col)
		if i > 0 && (t.Col < ts[i-1].Col || t.Col == ts[i-1].Col && t.Row < ts[i-1].Row) {
			sorted = false
		}
	}
	if !sorted {
		ts = sortTriples(ts, rowVar, colVar)
	}
	return compress(rows, cols, ts, add)
}

// Empty returns a DCSC with no nonzeros.
func Empty[T any](rows, cols Index) *DCSC[T] {
	return &DCSC[T]{NumRows: rows, NumCols: cols, CP: []int{0}}
}

// sized returns an empty matrix under construction — CP still lacks its
// closing entry — with room for ncols nonempty columns and nnz nonzeros.
func sized[T any](rows, cols Index, ncols, nnz int) *DCSC[T] {
	return &DCSC[T]{
		NumRows: rows, NumCols: cols,
		JC:   make([]Index, 0, ncols),
		CP:   make([]int, 0, ncols+1),
		IR:   make([]Index, 0, nnz),
		Vals: make([]T, 0, nnz),
	}
}

// push appends one nonzero to a matrix under construction. Calls arrive in
// column-major order; a position equal to the last one pushed folds into it
// with add, and is an error naming the entry when add is nil.
func (m *DCSC[T]) push(row, col Index, v T, add func(T, T) T) error {
	n := len(m.IR)
	switch {
	case len(m.JC) == 0 || m.JC[len(m.JC)-1] != col:
		m.JC = append(m.JC, col)
		m.CP = append(m.CP, n)
	case m.IR[n-1] == row:
		if add == nil {
			return fmt.Errorf("spmat: duplicate entry (%d,%d) with nil add", row, col)
		}
		m.Vals[n-1] = add(m.Vals[n-1], v)
		return nil
	}
	m.IR = append(m.IR, row)
	m.Vals = append(m.Vals, v)
	return nil
}

// compress folds a (Col, Row)-ordered triple list into a DCSC whose arrays
// are sized once, combining runs of equal position with add in list order.
// A duplicate with add == nil is the only error.
func compress[T any](rows, cols Index, ts []Triple[T], add func(T, T) T) (*DCSC[T], error) {
	ncols, nnz := 0, 0
	for i := range ts {
		if i == 0 || ts[i].Col != ts[i-1].Col {
			ncols++
			nnz++
		} else if ts[i].Row != ts[i-1].Row {
			nnz++
		}
	}
	m := sized[T](rows, cols, ncols, nnz)
	for i := range ts {
		if err := m.push(ts[i].Row, ts[i].Col, ts[i].Val, add); err != nil {
			return nil, err
		}
	}
	m.CP = append(m.CP, len(m.IR))
	return m, nil
}

// ToTriples lists the nonzeros in column-major order.
func (m *DCSC[T]) ToTriples() []Triple[T] {
	out := make([]Triple[T], 0, m.NNZ())
	for c, col := range m.JC {
		for k := m.CP[c]; k < m.CP[c+1]; k++ {
			out = append(out, Triple[T]{Row: m.IR[k], Col: col, Val: m.Vals[k]})
		}
	}
	return out
}

// colSpan returns the half-open value range of column id, or (0,0,false)
// if the column is empty. Lookup is a binary search over JC.
func (m *DCSC[T]) colSpan(col Index) (lo, hi int, ok bool) {
	c, found := slices.BinarySearch(m.JC, col)
	if !found {
		return 0, 0, false
	}
	return m.CP[c], m.CP[c+1], true
}

// ColRange returns the panel of columns with lo <= id < hi as a matrix of
// the same shape (NumRows x NumCols; only the column set shrinks), so a
// panel is directly usable wherever the full matrix is. Panels taken at
// consecutive ranges concatenate — in range order — to exactly the original
// matrix, which is the invariant the blocked SpGEMM pipeline builds on.
// JC, IR and Vals share the receiver's backing arrays (no copy); only CP is
// rebased. O(result + log columns).
func (m *DCSC[T]) ColRange(lo, hi Index) *DCSC[T] {
	out := &DCSC[T]{NumRows: m.NumRows, NumCols: m.NumCols}
	cLo, _ := slices.BinarySearch(m.JC, lo)
	cHi, _ := slices.BinarySearch(m.JC, hi)
	if cLo >= cHi {
		out.CP = []int{0}
		return out
	}
	base := m.CP[cLo]
	out.JC = m.JC[cLo:cHi:cHi]
	out.CP = make([]int, 0, cHi-cLo+1)
	for c := cLo; c <= cHi; c++ {
		out.CP = append(out.CP, m.CP[c]-base)
	}
	out.IR = m.IR[base:m.CP[cHi]:m.CP[cHi]]
	out.Vals = m.Vals[base:m.CP[cHi]:m.CP[cHi]]
	return out
}

// Bytes estimates the in-memory footprint of the compressed arrays, the
// quantity the virtual clock's live-bytes ledger tracks.
func (m *DCSC[T]) Bytes() int64 {
	var zero T
	return int64(len(m.JC))*8 + int64(len(m.CP))*8 + int64(len(m.IR))*8 +
		int64(len(m.Vals))*int64(unsafe.Sizeof(zero))
}

// At returns the value at (row, col) if stored.
func (m *DCSC[T]) At(row, col Index) (T, bool) {
	var zero T
	lo, hi, ok := m.colSpan(col)
	if !ok {
		return zero, false
	}
	if j, found := slices.BinarySearch(m.IR[lo:hi], row); found {
		return m.Vals[lo+j], true
	}
	return zero, false
}

// Transpose returns the transposed matrix. The swapped triples come out
// ordered by their new row, so a stable sort on the new column alone
// (rowVar = 0) puts them in column-major order.
func (m *DCSC[T]) Transpose() *DCSC[T] {
	ts := make([]Triple[T], 0, m.NNZ())
	var colVar uint64
	for c, col := range m.JC {
		for k := m.CP[c]; k < m.CP[c+1]; k++ {
			ts = append(ts, Triple[T]{Row: col, Col: m.IR[k], Val: m.Vals[k]})
			colVar |= uint64(m.IR[k] ^ m.IR[0])
		}
	}
	// compress fails only on a duplicate position, which a DCSC cannot hold.
	out, _ := compress(m.NumCols, m.NumRows, sortTriples(ts, 0, colVar), nil)
	return out
}

// Prune returns a copy keeping only nonzeros for which keep returns true.
func (m *DCSC[T]) Prune(keep func(row, col Index, v T) bool) *DCSC[T] {
	out := &DCSC[T]{NumRows: m.NumRows, NumCols: m.NumCols}
	for c, col := range m.JC {
		start := len(out.IR)
		for k := m.CP[c]; k < m.CP[c+1]; k++ {
			if keep(m.IR[k], col, m.Vals[k]) {
				out.IR = append(out.IR, m.IR[k])
				out.Vals = append(out.Vals, m.Vals[k])
			}
		}
		if len(out.IR) > start {
			out.JC = append(out.JC, col)
			out.CP = append(out.CP, start)
		}
	}
	out.CP = append(out.CP, len(out.IR))
	return out
}

// Apply returns a copy with f applied to every stored value.
func Apply[T, U any](m *DCSC[T], f func(row, col Index, v T) U) *DCSC[U] {
	out := &DCSC[U]{
		NumRows: m.NumRows, NumCols: m.NumCols,
		JC: append([]Index(nil), m.JC...),
		CP: append([]int(nil), m.CP...),
		IR: append([]Index(nil), m.IR...),
	}
	out.Vals = make([]U, len(m.Vals))
	for c, col := range m.JC {
		for k := m.CP[c]; k < m.CP[c+1]; k++ {
			out.Vals[k] = f(m.IR[k], col, m.Vals[k])
		}
	}
	return out
}

// MergeAdd sums equally-shaped matrices by a multiway merge of their
// column-major nonzero streams. The other half of the assembly rule: inputs
// that are already ordered are merged, never re-sorted. Coincident nonzeros
// fold with add in part order, parts[0] first — the order FromTriples gives
// the concatenation of the parts' triples — so order-sensitive adds see the
// same operand sequence (a coincidence with add == nil is an error). The
// result shares no array with its parts.
func MergeAdd[T any](parts []*DCSC[T], add func(T, T) T) (*DCSC[T], error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("spmat: MergeAdd of no parts")
	}
	rows, cols := parts[0].NumRows, parts[0].NumCols
	ncols, nnz := 0, 0
	for _, p := range parts {
		if p.NumRows != rows || p.NumCols != cols {
			return nil, fmt.Errorf("spmat: MergeAdd shape mismatch %dx%d vs %dx%d",
				rows, cols, p.NumRows, p.NumCols)
		}
		ncols += len(p.JC)
		nnz += p.NNZ()
	}
	// Upper bounds, allocated once: the slack is what the parts overlap by.
	out := sized[T](rows, cols, ncols, nnz)
	slot := make([]int, len(parts)) // per part: column slot and position of
	pos := make([]int, len(parts))  // its next unmerged nonzero
	for {
		// The smallest pending position; among equals the earliest part.
		first := -1
		var col, row Index
		for i, p := range parts {
			if pos[i] == p.NNZ() {
				continue
			}
			if c, r := p.JC[slot[i]], p.IR[pos[i]]; first < 0 || c < col || c == col && r < row {
				first, col, row = i, c, r
			}
		}
		if first < 0 {
			break
		}
		p := parts[first]
		if err := out.push(row, col, p.Vals[pos[first]], add); err != nil {
			return nil, err
		}
		if pos[first]++; pos[first] == p.CP[slot[first]+1] {
			slot[first]++
		}
	}
	out.CP = append(out.CP, len(out.IR))
	return out, nil
}

// Stats reports the work performed by an SpGEMM call, used to charge the
// virtual clock: Flops counts the semiring multiplications performed (the
// standard SpGEMM work measure; additions are bounded by it).
type Stats struct {
	Flops int64
}

// SpGEMMOpts tunes the local multiply's intra-rank threading (the
// hybrid-parallelism layer of the follow-up paper).
type SpGEMMOpts struct {
	// Threads is the intra-rank thread count; <= 1 multiplies serially.
	Threads int
	// RowMax, when non-nil, bounds output column j to rows <= RowMax(j):
	// the multiply forms only those entries, performs (and counts) only
	// their flops, and emits no column the bound leaves empty. nil forms
	// every entry.
	RowMax func(j Index) Index
}

// segment is the partial SpGEMM output for one contiguous range of B's
// nonempty columns, in the same compressed layout as DCSC but with CP
// relative to the segment start. Segments concatenate in chunk order into
// the exact DCSC a serial pass would produce, because output columns appear
// in increasing B-column order within and across chunks.
type segment[C any] struct {
	jc    []Index
	cp    []int
	ir    []Index
	vals  []C
	flops int64
}

// whole adopts the arrays of a segment that covers every column of B as the
// product matrix, without copying them through assemble.
func (s segment[C]) whole(rows, cols Index) (*DCSC[C], Stats) {
	return &DCSC[C]{
		NumRows: rows, NumCols: cols,
		JC: s.jc, CP: append(s.cp, len(s.ir)), IR: s.ir, Vals: s.vals,
	}, Stats{Flops: s.flops}
}

// assemble concatenates per-chunk segments, in chunk order, into one DCSC.
func assemble[C any](rows, cols Index, segs []segment[C]) (*DCSC[C], Stats) {
	var stats Stats
	ncols, nnz := 0, 0
	for _, s := range segs {
		ncols += len(s.jc)
		nnz += len(s.ir)
		stats.Flops += s.flops
	}
	out := sized[C](rows, cols, ncols, nnz)
	for _, s := range segs {
		base := len(out.IR)
		out.JC = append(out.JC, s.jc...)
		for _, p := range s.cp {
			out.CP = append(out.CP, base+p)
		}
		out.IR = append(out.IR, s.ir...)
		out.Vals = append(out.Vals, s.vals...)
	}
	out.CP = append(out.CP, len(out.IR))
	return out, stats
}

// SpGEMM computes A·B over sr, partitioning B's nonempty columns into
// chunks multiplied concurrently by opts.Threads workers and merging the
// per-chunk DCSC segments in chunk order. The result — structure, values
// and Flops count — is bit-identical to the serial kernel for any thread
// count, because chunk boundaries depend only on the column count and each
// output column is produced wholly inside one chunk.
func SpGEMM[A, B, C any](a *DCSC[A], b *DCSC[B], sr Semiring[A, B, C],
	opts SpGEMMOpts) (*DCSC[C], Stats, error) {

	if a.NumCols != b.NumRows {
		return nil, Stats{}, fmt.Errorf("spmat: SpGEMM inner dim %d vs %d", a.NumCols, b.NumRows)
	}
	if len(a.JC) >= math.MaxInt32 {
		return nil, Stats{}, fmt.Errorf("spmat: SpGEMM left operand has %d nonempty columns", len(a.JC))
	}
	ncols := len(b.JC)
	if ncols == 0 {
		return Empty[C](a.NumRows, b.NumCols), Stats{}, nil
	}
	aCol := newAColLookup(a)
	threads := opts.Threads
	if threads < 1 {
		threads = 1
	}
	nchunks := 1
	if threads > 1 {
		nchunks = threads * 4 // oversubscribed for balance; output is chunk-order merged
		if nchunks > ncols {
			nchunks = ncols
		}
	}
	if nchunks == 1 {
		// Serial fast path: one segment, adopted in place.
		out, stats := hashRange(a, b, &aCol, sr, opts.RowMax, 0, ncols).whole(a.NumRows, b.NumCols)
		return out, stats, nil
	}
	segs := make([]segment[C], nchunks)
	parallel.ForChunks(threads, ncols, nchunks, func(w, chunk, lo, hi int) {
		segs[chunk] = hashRange(a, b, &aCol, sr, opts.RowMax, lo, hi)
	})
	out, stats := assemble(a.NumRows, b.NumCols, segs)
	return out, stats, nil
}

// Equal reports whether two matrices have identical structure and values
// (values compared with eq).
func Equal[T any](a, b *DCSC[T], eq func(T, T) bool) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.NNZ() != b.NNZ() ||
		len(a.JC) != len(b.JC) {
		return false
	}
	for i := range a.JC {
		if a.JC[i] != b.JC[i] || a.CP[i] != b.CP[i] {
			return false
		}
	}
	for i := range a.IR {
		if a.IR[i] != b.IR[i] || !eq(a.Vals[i], b.Vals[i]) {
			return false
		}
	}
	return true
}
