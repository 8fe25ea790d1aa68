package core

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/spmat"
)

// Query answers one batch of queries against a loaded index. The database
// stays where it is: rank (i, j) keeps its block of Aᵀ (and (AS)ᵀ) as
// k-mer-major postings and, once a batch has succeeded, the database
// sequences of its grid column. The batch forms a narrow panel Q (query rows
// × k-mer space), is pruned by the database's banned-k-mer list and expanded
// to QS by the expandAS that formed the database's AS; then each grid row i
// gathers the batch's k-mer block i, looks its k-mers up in the postings, and
// the partial products merge along the grid columns into the panels of
// B = Q·Aᵀ (or QS·Aᵀ ⊕ Q·(AS)ᵀ), which the blocked-wave driver aligns as in
// the all-vs-all pipeline. A batch moves and multiplies its own k-mers; no
// byte of the database crosses the wire after the first batch. Edges come out
// query-first: R is the query's index in the batch, C the database target.
//
// Collective; queries is this rank's share of the batch (any split works —
// globals come from the prefix sum). coldBytes is the artifact size to
// charge to the virtual IO clock when the resident blocks were read from
// disk for this run, 0 on warm calls where they were already in memory.
// The output is bit-identical for every Threads × Blocks × transport
// combination, and — restricted to the query rows — to the all-vs-all
// pipeline over the same data. Config.CheckpointDir is ignored: a batch is
// cheap to re-run, and the checkpoint identity does not cover its content.
func Query(comm *mpi.Comm, rd *RankData, queries []fasta.Record, cfg Config, coldBytes int64) (*Result, error) {
	if cfg.SubstituteKmers != rd.Subs {
		return nil, fmt.Errorf("core: index built with %d substitute k-mers, queried with %d", rd.Subs, cfg.SubstituteKmers)
	}
	if cfg.MaxKmerFrequency != rd.MaxFreq {
		return nil, fmt.Errorf("core: index built with frequency limit %d, queried with %d", rd.MaxFreq, cfg.MaxKmerFrequency)
	}
	r, err := openRun(comm, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	clock, grid := r.clock, r.grid
	var stats Stats

	// Cold runs pay for reading the artifact; warm runs skip it — that gap
	// is the amortization this path exists for.
	if coldBytes > 0 {
		clock.Section(SectionFasta, func() { clock.IOBytes(coldBytes) })
	}

	// The database's column side is resident after the first batch that
	// succeeded; until then this batch fetches it, overlapping the stages
	// below, and keeps it if it succeeds.
	targets := rd.targets
	if targets == nil {
		if targets, err = rd.fetchTargets(grid); err != nil {
			return nil, err
		}
	}
	// The batch's own sequences: the row side of its global space 0..nq.
	qstore, err := stageInput(grid, queries, false, cfg)
	if err != nil {
		return nil, err
	}
	stats.NumSeqs = int64(qstore.Total)

	// The resident postings are on this run's ledger until the sweep ends.
	b := &batch{r: r, rd: rd, nq: qstore.Total}
	clock.AllocBytes(rd.resident())

	// --- form Q: |batch| × |k-mer space|, exactly formA over the batch ---
	clock.StartSection(SectionFormA)
	q, err := formA(grid, qstore, cfg, r.kmerSpace, false, &stats)
	clock.EndSection()
	if err != nil {
		return nil, err
	}
	if stats.NNZA, err = q.TryNNZ(); err != nil {
		return nil, err
	}

	// --- the database's frequency pre-filter, replayed from the artifact ---
	// The banned list was computed from the database's global k-mer counts
	// at build time; applying it to Q reproduces exactly the filter the
	// all-vs-all pipeline would have applied to these rows.
	stats.NNZAFiltered = stats.NNZA
	if cfg.MaxKmerFrequency > 0 {
		clock.Section(SectionFormA, func() { restrict(q, rd.Banned) })
		if stats.NNZAFiltered, err = q.TryNNZ(); err != nil {
			return nil, err
		}
	}

	// --- QS = Q·S: the build's substitute expansion, on the query panel ---
	var qs *dmat.Mat[PosDist]
	if rd.Subs > 0 {
		if qs, err = expandAS(r, q); err != nil {
			return nil, err
		}
		if stats.NNZAS, err = qs.TryNNZ(); err != nil {
			return nil, err
		}
	}

	// --- spread the batch: every grid row i gathers the batch's k-mer
	// block i, where its postings are ---
	clock.StartSection(SectionTrA)
	b.rows, err = spread(b, q, dmat.Int32Codec)
	if err == nil && qs != nil {
		b.rowsS, err = spread(b, qs, PosDistCodec)
	}
	clock.EndSection()
	if err != nil {
		return nil, err
	}

	res, err := sweep(r, b, pairSeqs{rows: qstore, cols: targets}, frameRect, nil, stats)
	if err != nil {
		return nil, err
	}
	rd.targets = targets
	return res, nil
}

// batch is a query batch as a sweep's panel source: the batch's Q (and QS)
// against this rank's resident postings. Rank (i, j) forms the partial
// products of every batch row with its block (i, j) — Q(·, i)·Aᵀ(i, j) — and
// grid column j sums them into B's blocks; the semirings are frameRect's, and
// MergeOverlap is commutative and associative, so every block is bitwise the
// SUMMA product's.
type batch struct {
	r  *run
	rd *RankData
	nq spmat.Index // batch size

	// rows[c] is Q(c, i)ᵀ: the k-mers in this grid row's block i of batch
	// row block c, batch rows as columns; rowsS[c] the same of QS (nil in
	// exact mode). gathered is what they hold on the ledger.
	rows     []*spmat.DCSC[int32]
	rowsS    []*spmat.DCSC[PosDist]
	gathered int64
}

// spread consumes m, a batch operand with k-mers as columns, and returns its
// k-mer block i on every rank of grid row i, one part per batch row block:
// dmat's pairwise exchange puts m's block (r, i), transposed, on rank (i, r),
// and grid row i allgathers its blocks. m's block leaves its rank as the
// message to the mirror, so the ledger frees it before the mirror's block
// arrives. The batch is small, so the parts travel as block frames on every
// backend.
func spread[V any](b *batch, m *dmat.Mat[V], codec dmat.Codec[V]) ([]*spmat.DCSC[V], error) {
	b.r.clock.FreeBytes(m.LocalBytes())
	mt, err := m.Transpose()
	m.Local = nil
	if err != nil {
		return nil, err
	}
	row := b.r.grid.RowComm
	bufs, err := row.TryAllgather(dmat.EncodeBlock(mt.Local, codec))
	if err != nil {
		return nil, err
	}
	parts := make([]*spmat.DCSC[V], len(bufs))
	b.gathered += mt.LocalBytes()
	for c, buf := range bufs {
		if c == row.Rank() {
			parts[c] = mt.Local
			continue
		}
		if parts[c], err = dmat.DecodeBlock(buf, codec); err != nil {
			return nil, fmt.Errorf("core: batch block from grid column %d: %w", c, err)
		}
		b.r.clock.AllocBytes(parts[c].Bytes())
		b.gathered += parts[c].Bytes()
	}
	return parts, nil
}

// panels streams the batch's candidate panels: panel k of `blocks` takes the
// postings whose target lies in panel k of this rank's target block, so its
// partial products — and the merge of them — cover exactly that panel.
func (b *batch) panels(blocks, startPanel int, yield func(int, panel) error) error {
	g := b.r.grid
	rowOff, _ := dmat.BlockRange(b.nq, g.Q, g.MyRow)
	colOff, _ := dmat.BlockRange(b.rd.Total, g.Q, g.MyCol)
	for k := startPanel; k < blocks; k++ {
		lo, hi := dmat.BlockRange(b.rd.at.width, blocks, k)
		var bp *spmat.DCSC[Overlap]
		var err error
		b.r.clock.Section(SectionB, func() { bp, err = b.panel(int32(lo), int32(hi)) })
		if err != nil {
			return err
		}
		if err := yield(k, panel{b: bp, rowOff: rowOff, colOff: colOff}); err != nil {
			return err
		}
	}
	return nil
}

// panel forms this rank's block of one panel — the targets [lo, hi) of its
// block: the partial product of every batch row block against the postings,
// an exchange along the grid column that hands each batch row block its
// partials, and their merge.
func (b *batch) panel(lo, hi int32) (*spmat.DCSC[Overlap], error) {
	r := b.r
	col := r.grid.ColComm
	threads := max(r.cfg.Threads, 1)
	spas := make([]*spa, parallel.Workers(threads))
	parts := make([]*spmat.DCSC[Overlap], col.Size())
	var flops, built int64
	for c := range parts {
		terms := []term{newTerm(b.rows[c], b.rd.at, frameRect.exact())}
		if b.rowsS != nil {
			terms = []term{newTerm(b.rowsS[c], b.rd.at, frameRect.subRows()), newTerm(b.rows[c], b.rd.ast, frameRect.subCols())}
		}
		var f, formed int64
		var err error
		if parts[c], f, formed, err = multiply(terms, b.rows[c].NumCols, b.rd.at.width, lo, hi, threads, spas); err != nil {
			return nil, err
		}
		r.clock.ParOps(float64(f) * dmat.FlopOps)
		// The partial is formed as a triple list and compressed, both live at
		// once; the stage products of the SUMMA were charged the same way.
		flops += f
		tripleBytes := formed * int64(unsafe.Sizeof(spmat.Triple[Overlap]{}))
		r.clock.AllocBytes(tripleBytes + parts[c].Bytes())
		r.clock.FreeBytes(tripleBytes)
		built += parts[c].Bytes()
	}

	me := col.Rank()
	bufs := make([][]byte, len(parts))
	for c, p := range parts {
		if c != me && p.NNZ() > 0 {
			bufs[c] = dmat.EncodeBlock(p, OverlapCodec)
		}
	}
	got, err := col.TryAlltoallv(bufs)
	if err != nil {
		return nil, err
	}
	mine := []*spmat.DCSC[Overlap]{parts[me]}
	nnz, received := int64(parts[me].NNZ()), int64(0)
	for src, buf := range got {
		if src == me || len(buf) == 0 {
			continue
		}
		p, err := dmat.DecodeBlock(buf, OverlapCodec)
		if err != nil {
			return nil, fmt.Errorf("core: partial product from grid row %d: %w", src, err)
		}
		mine = append(mine, p)
		nnz += int64(p.NNZ())
		received += p.Bytes()
	}
	r.clock.AllocBytes(received)
	merged, err := spmat.MergeAdd(mine, MergeOverlap)
	if err != nil {
		return nil, err
	}
	r.clock.ParOps(float64(nnz) * dmat.BuildOps)
	r.clock.AllocBytes(merged.Bytes())
	r.clock.FreeBytes(built + received)
	return merged, nil
}

// release frees the gathered parts and the resident postings' charge.
func (b *batch) release() { b.r.clock.FreeBytes(b.gathered + b.rd.resident()) }

// term is one product of a panel's partial: a gathered batch part against a
// rank's postings, under the frameRect semiring that pairs their values.
// cols lists the batch rows the part holds k-mers of; add accumulates the
// contributions of its column c into the row being formed.
type term struct {
	cols []spmat.Index
	add  func(s *spa, c int)
}

// newTerm looks every k-mer of the part up in the postings: one seed per
// posting inside the panel, so the work is the batch's nonzeros plus the
// contributions, independent of the database.
func newTerm[A, B any](part *spmat.DCSC[A], p *postings[B], sr spmat.Semiring[A, B, Overlap]) term {
	return term{cols: part.JC, add: func(s *spa, c int) {
		row, from := part.JC[c], 0
		for e := part.CP[c]; e < part.CP[c+1]; e++ {
			a, z, next := p.span(part.IR[e], from, s.lo, s.hi)
			from = next
			for x := a; x < z; x++ {
				t := p.tgt[x]
				s.add(t, sr.Multiply(row, spmat.Index(t), part.Vals[e], p.val[x]))
			}
			s.flops += int64(z - a)
		}
	}}
}

// multiply forms the partial product of the terms over the panel's targets
// [lo, hi): a rows × width block of batch rows × targets. Batch rows split
// into chunks over the rank's threads, one accumulator per worker in spas;
// chunks concatenate in order, so the block is the same for every thread
// count. It returns the block, its flops and the triples it was formed from.
func multiply(terms []term, rows, width spmat.Index, lo, hi int32, threads int, spas []*spa) (*spmat.DCSC[Overlap], int64, int64, error) {
	type chunkOut struct {
		ts    []spmat.Triple[Overlap]
		flops int64
	}
	outs := make([]chunkOut, len(spas)*4)
	parallel.ForChunks(threads, int(rows), len(outs), func(w, chunk, rlo, rhi int) {
		s := spas[w]
		if s == nil {
			s = &spa{lo: lo, hi: hi, slot: make([]int32, hi-lo)}
			spas[w] = s
		}
		s.flops = 0
		cur := make([]int, len(terms))
		for i, tm := range terms {
			cur[i], _ = slices.BinarySearch(tm.cols, spmat.Index(rlo))
		}
		out := &outs[chunk]
		for row := spmat.Index(rlo); row < spmat.Index(rhi); row++ {
			for i, tm := range terms {
				if cur[i] < len(tm.cols) && tm.cols[cur[i]] == row {
					tm.add(s, cur[i])
					cur[i]++
				}
			}
			out.ts = s.flush(row, out.ts)
		}
		out.flops = s.flops
	})
	var ts []spmat.Triple[Overlap]
	var flops int64
	for _, o := range outs {
		ts = append(ts, o.ts...)
		flops += o.flops
	}
	m, err := spmat.FromTriples(rows, width, ts, nil)
	return m, flops, int64(len(ts)), err
}

// spa is a sparse accumulator over one panel's targets: the row of a partial
// product being formed, with the targets it touched.
type spa struct {
	lo, hi  int32
	slot    []int32 // per target t: 1 + its index in vals, 0 while untouched
	touched []int32
	vals    []Overlap
	flops   int64
}

func (s *spa) add(t int32, v Overlap) {
	if i := s.slot[t-s.lo]; i > 0 {
		s.vals[i-1] = MergeOverlap(s.vals[i-1], v)
		return
	}
	s.touched = append(s.touched, t)
	s.vals = append(s.vals, v)
	s.slot[t-s.lo] = int32(len(s.vals))
}

// flush appends the row's entries to ts and clears the row.
func (s *spa) flush(row spmat.Index, ts []spmat.Triple[Overlap]) []spmat.Triple[Overlap] {
	for _, t := range s.touched {
		i := &s.slot[t-s.lo]
		ts = append(ts, spmat.Triple[Overlap]{Row: row, Col: spmat.Index(t), Val: s.vals[*i-1]})
		*i = 0
	}
	s.touched, s.vals = s.touched[:0], s.vals[:0]
	return ts
}
