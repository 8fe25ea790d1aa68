// Package seqstore implements the fully-distributed sequence dictionary of
// the paper (Section V-C): sequences are initially owned in a byte-balanced
// 1D partition by rank; each grid process then needs the sequences covering
// its 2D block's row range and column range of the similarity matrix — up to
// 2n/√p sequences — which it prefetches from the owning ranks with
// nonblocking sends/receives issued immediately after the FASTA read, so the
// transfer overlaps matrix formation and multiplication. A Waitall after B
// is computed accounts for whatever transfer time was not hidden (the
// paper's "wait" component).
package seqstore

import (
	"bytes"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/wire"
)

// Sequence is one protein sequence with its global index.
type Sequence struct {
	Global spmat.Index
	Name   string
	Codes  []alphabet.Code
}

// Store holds this rank's owned partition plus, after Wait, the sequences
// covering its grid row and column ranges.
type Store struct {
	Grid  *dmat.Grid
	Total spmat.Index // global sequence count

	OwnedStart spmat.Index // global index of first owned sequence
	Owned      []Sequence

	// Row/Col ranges this rank's block needs (global, half-open), fixed by
	// the 2D decomposition of the n×n similarity matrix.
	RowLo, RowHi spmat.Index
	ColLo, ColHi spmat.Index

	rowSeqs []Sequence // filled by Wait; indexed by global - RowLo
	colSeqs []Sequence

	pendingRecv []*mpi.Request
	recvMeta    []recvRange
	waited      bool
}

type recvRange struct {
	isRow  bool
	lo, hi spmat.Index // global range carried by this message
}

const (
	tagRow = 1001
	tagCol = 1002
	// The query path runs two exchanges concurrently over one comm — the
	// resident database partition and the query batch. Distinct tags keep
	// their in-flight messages from cross-matching.
	tagRowResident = 1003
	tagColResident = 1004
)

// ownership lists every rank's owned global range, derived collectively.
type ownership struct {
	start []spmat.Index // start[r] = first global index owned by rank r
	total spmat.Index
}

func (o ownership) rangeOf(rank int) (lo, hi spmat.Index) {
	lo = o.start[rank]
	if rank+1 < len(o.start) {
		return lo, o.start[rank+1]
	}
	return lo, o.total
}

// Exchange assigns global indices to the locally-parsed records, computes
// which ranks need which of them, and launches the nonblocking exchange.
// It returns immediately; call Wait before reading row/col sequences.
// Collective over the grid.
func Exchange(g *dmat.Grid, recs []fasta.Record) (*Store, error) {
	owned := make([]Sequence, len(recs))
	for i, rec := range recs {
		codes, err := alphabet.EncodeSeq(alphabet.Clean(rec.Seq))
		if err != nil {
			return nil, fmt.Errorf("seqstore: %s: %w", rec.ID, err)
		}
		owned[i] = Sequence{Name: rec.ID, Codes: codes}
	}
	g.Comm.Clock().Ops(float64(fasta.TotalSeqBytes(recs)) * 2)
	return fromOwned(g, owned, tagRow, tagCol)
}

// FromOwned builds a store from an already-encoded owned partition — the
// path the persistent index takes on reload, where sequences come from the
// artifact rather than a FASTA parse. Global indices are (re)assigned from
// the collective prefix sum, so they are correct whenever every rank holds
// the same partition slice it held at build time. Launches the nonblocking
// row/column prefetch exactly like Exchange, on the resident tag pair so it
// can run concurrently with a query batch's Exchange; collective over the
// grid.
func FromOwned(g *dmat.Grid, owned []Sequence) (*Store, error) {
	return fromOwned(g, owned, tagRowResident, tagColResident)
}

func fromOwned(g *dmat.Grid, owned []Sequence, rowTag, colTag int) (*Store, error) {
	comm := g.Comm

	// Global indexing via prefix sum of owned counts (paper Section V-A:
	// "a parallel prefix sum of sequence counts").
	myCount := int64(len(owned))
	myStart, err := comm.TryExscanInt64(myCount)
	if err != nil {
		return nil, err
	}
	total, err := comm.TryAllreduceInt64("sum", myCount)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("seqstore: empty dataset")
	}

	// Everyone learns all owned ranges (counts are 8 bytes per rank).
	counts, err := comm.TryAllgather(wire.AppendU64(nil, uint64(myCount)))
	if err != nil {
		return nil, err
	}
	own := ownership{start: make([]spmat.Index, comm.Size()), total: spmat.Index(total)}
	var acc int64
	for r, buf := range counts {
		if len(buf) != 8 {
			return nil, fmt.Errorf("seqstore: count from rank %d is %d bytes, want 8", r, len(buf))
		}
		own.start[r] = spmat.Index(acc)
		acc += int64(wire.U64(buf))
	}

	st := &Store{
		Grid:       g,
		Total:      spmat.Index(total),
		OwnedStart: spmat.Index(myStart),
		Owned:      owned,
	}
	for i := range st.Owned {
		st.Owned[i].Global = st.OwnedStart + spmat.Index(i)
	}

	st.RowLo, st.RowHi = dmat.BlockRange(st.Total, g.Q, g.MyRow)
	st.ColLo, st.ColHi = dmat.BlockRange(st.Total, g.Q, g.MyCol)
	st.rowSeqs = make([]Sequence, st.RowHi-st.RowLo)
	st.colSeqs = make([]Sequence, st.ColHi-st.ColLo)

	// Sends: for every rank d, ship the overlap of my owned range with d's
	// row and column needs. Both sides compute the same intersections from
	// the shared ownership table, so no request round-trip is needed.
	myLo, myHi := own.rangeOf(comm.Rank())
	for d := 0; d < comm.Size(); d++ {
		dRow, dCol := d/g.Q, d%g.Q
		rLo, rHi := dmat.BlockRange(st.Total, g.Q, dRow)
		cLo, cHi := dmat.BlockRange(st.Total, g.Q, dCol)
		if lo, hi := intersect(myLo, myHi, rLo, rHi); lo < hi {
			if _, err := comm.TryIsend(d, rowTag, st.encodeRange(lo, hi)); err != nil {
				return nil, err
			}
		}
		if lo, hi := intersect(myLo, myHi, cLo, cHi); lo < hi {
			if _, err := comm.TryIsend(d, colTag, st.encodeRange(lo, hi)); err != nil {
				return nil, err
			}
		}
	}
	// Receives: one message per owner rank overlapping my needed ranges.
	for s := 0; s < comm.Size(); s++ {
		sLo, sHi := own.rangeOf(s)
		if lo, hi := intersect(sLo, sHi, st.RowLo, st.RowHi); lo < hi {
			st.pendingRecv = append(st.pendingRecv, comm.Irecv(s, rowTag))
			st.recvMeta = append(st.recvMeta, recvRange{isRow: true, lo: lo, hi: hi})
		}
		if lo, hi := intersect(sLo, sHi, st.ColLo, st.ColHi); lo < hi {
			st.pendingRecv = append(st.pendingRecv, comm.Irecv(s, colTag))
			st.recvMeta = append(st.recvMeta, recvRange{isRow: false, lo: lo, hi: hi})
		}
	}
	return st, nil
}

// Wait completes the exchange (the paper's MPI_Waitall after computing B)
// and indexes the received sequences. Idempotent.
func (st *Store) Wait() error {
	if st.waited {
		return nil
	}
	st.waited = true
	for i, req := range st.pendingRecv {
		meta := st.recvMeta[i]
		payload, err := req.TryWait()
		if err != nil {
			return err
		}
		seqs, err := DecodeSequences(payload)
		if err != nil {
			return err
		}
		if len(seqs) != int(meta.hi-meta.lo) {
			return fmt.Errorf("seqstore: expected %d sequences in [%d,%d), got %d",
				meta.hi-meta.lo, meta.lo, meta.hi, len(seqs))
		}
		for _, s := range seqs {
			if meta.isRow {
				st.rowSeqs[s.Global-st.RowLo] = s
			} else {
				st.colSeqs[s.Global-st.ColLo] = s
			}
		}
	}
	st.pendingRecv, st.recvMeta = nil, nil
	return nil
}

// RowSeq returns the sequence with global index g from the block-row cache.
func (st *Store) RowSeq(g spmat.Index) (Sequence, error) {
	if !st.waited {
		return Sequence{}, fmt.Errorf("seqstore: RowSeq before Wait")
	}
	if g < st.RowLo || g >= st.RowHi {
		return Sequence{}, fmt.Errorf("seqstore: row %d outside [%d,%d)", g, st.RowLo, st.RowHi)
	}
	return st.rowSeqs[g-st.RowLo], nil
}

// ColSeq returns the sequence with global index g from the block-column cache.
func (st *Store) ColSeq(g spmat.Index) (Sequence, error) {
	if !st.waited {
		return Sequence{}, fmt.Errorf("seqstore: ColSeq before Wait")
	}
	if g < st.ColLo || g >= st.ColHi {
		return Sequence{}, fmt.Errorf("seqstore: col %d outside [%d,%d)", g, st.ColLo, st.ColHi)
	}
	return st.colSeqs[g-st.ColLo], nil
}

func intersect(aLo, aHi, bLo, bHi spmat.Index) (spmat.Index, spmat.Index) {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	return lo, hi
}

// encodeRange serializes owned sequences with global indices in [lo,hi).
func (st *Store) encodeRange(lo, hi spmat.Index) []byte {
	return AppendSequences(nil, st.Owned[lo-st.OwnedStart:hi-st.OwnedStart])
}

// AppendSequences appends the wire encoding of seqs — the same format the
// row/column prefetch puts on the transport, reused verbatim as the "seq"
// section of the persistent index artifact.
func AppendSequences(dst []byte, seqs []Sequence) []byte {
	dst = wire.AppendU64(dst, uint64(len(seqs)))
	for _, s := range seqs {
		dst = wire.AppendU64(dst, uint64(s.Global))
		dst = wire.AppendString(dst, s.Name)
		dst = wire.AppendBytes(dst, s.Codes)
	}
	return dst
}

// DecodeSequences parses an AppendSequences encoding, validating every
// length against the remaining buffer.
func DecodeSequences(buf []byte) ([]Sequence, error) {
	r := wire.NewReader(buf)
	n := r.Count(24) // global index + two length prefixes
	out := make([]Sequence, n)
	for i := range out {
		// The codes outlive the message buffer: copy, do not alias.
		out[i] = Sequence{Global: spmat.Index(r.U64()), Name: r.String(), Codes: bytes.Clone(r.Bytes())}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("seqstore: sequence message: %w", err)
	}
	return out, nil
}
