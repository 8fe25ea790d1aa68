package core

import (
	"math/bits"
	"unsafe"

	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/scoring"
	"repro/internal/seqstore"
	"repro/internal/spmat"
	"repro/internal/subkmer"
)

// target is the database side of a sweep, as the build stages leave it in
// memory: what BuildIndex persists and what all-vs-all sweeps against.
type target struct {
	store   *seqstore.Store // owned sequences; the exchange may still be in flight
	a, at   *dmat.Mat[int32]
	as, ast *dmat.Mat[PosDist] // nil in exact mode; ast only when built for an index
	banned  []spmat.Index      // k-mers the frequency pre-filter dropped (this rank's column range)
	stats   Stats              // matrix-stage counters; KmersTotal is still rank-local
}

// buildTarget runs the target-side stages — input, A, the k-mer census and
// its prunes, Aᵀ, AS — and returns the operands resident. forIndex builds
// what only a persisted index needs: (AS)ᵀ at any wave count (an all-vs-all
// sweep builds it itself, and only for a multi-wave split). It does not wait
// for the sequence exchange stageInput launched: the caller completes it
// where sequence data is first needed, so the transfer hides under these
// stages (paper Section V-C).
func buildTarget(r *run, owned []fasta.Record, forIndex bool) (*target, error) {
	clock, cfg := r.clock, r.cfg
	store, err := stageInput(r.grid, owned, true, cfg)
	if err != nil {
		return nil, err
	}
	t := &target{store: store}
	t.stats.NumSeqs = int64(store.Total)

	// --- form A: |seqs| x |k-mer space|, values = k-mer start positions;
	// an exact all-vs-all sweep's holds only the k-mers two sequences share ---
	exact := cfg.SubstituteKmers == 0 && !forIndex
	clock.StartSection(SectionFormA)
	t.a, err = formA(r.grid, store, cfg, r.kmerSpace, exact, &t.stats)
	clock.EndSection()
	if err != nil {
		return nil, err
	}
	if t.stats.NNZA, err = r.comm.TryAllreduceInt64("sum", t.stats.NNZA); err != nil {
		return nil, err
	}

	// --- the grid column's k-mer census: the frequency pre-filter (paper
	// future work), the one place a banned k-mer leaves A, and a substitute
	// all-vs-all run's presence test read one ---
	var census *kmerCensus
	if cfg.MaxKmerFrequency > 0 || (cfg.SubstituteKmers > 0 && !forIndex) {
		clock.Section(SectionFormA, func() {
			if census, err = countKmers(t.a, cfg.MaxKmerFrequency); err == nil && cfg.MaxKmerFrequency > 0 {
				restrict(t.a, census.banned)
			}
		})
		if err != nil {
			return nil, err
		}
		t.banned = census.banned
	}
	// NNZAFiltered counts what the frequency pre-filter kept: every rank of
	// a grid column holds that column's banned total, so grid row 0 reports
	// it in one allreduce; with no frequency limit nothing is banned.
	t.stats.NNZAFiltered = t.stats.NNZA
	if cfg.MaxKmerFrequency > 0 {
		var banned int64
		if r.grid.MyRow == 0 {
			banned = census.bannedNNZ
		}
		if banned, err = r.comm.TryAllreduceInt64("sum", banned); err != nil {
			return nil, err
		}
		t.stats.NNZAFiltered = t.stats.NNZA - banned
	}

	clock.Section(SectionTrA, func() { t.at, err = t.a.Transpose() })
	if err != nil {
		return nil, err
	}
	if cfg.SubstituteKmers == 0 {
		return t, nil
	}

	// --- substitute k-mer expansion: AS = A·S (paper Section IV-C) ---
	// An index keeps the whole of AS: a query's exact k-mers meet rows of
	// (AS)ᵀ the database lacks. An all-vs-all sweep contracts AS with Aᵀ, so
	// it keeps only the entries that product reads.
	if !forIndex {
		t.as, err = expandPresent(r, t.a, census)
	} else {
		t.as, err = expandAS(r, t.a)
	}
	if err != nil {
		return nil, err
	}
	if t.stats.NNZAS, err = t.as.TryNNZ(); err != nil {
		return nil, err
	}
	if forIndex {
		if t.ast, err = transposeAS(clock, t.as); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// transposeAS builds (AS)ᵀ, the operand of the per-panel transpose
// contribution; it is symmetrization work (Fig. 15 "sym.").
func transposeAS(clock *mpi.Clock, as *dmat.Mat[PosDist]) (ast *dmat.Mat[PosDist], err error) {
	clock.Section(SectionSym, func() { ast, err = as.Transpose() })
	return ast, err
}

// stageInput encodes this rank's records — its share of a database or of a
// query batch — and launches the overlapped sequence exchange (paper
// Section V-C): the row side always, the column side only for a database
// (cols), since a batch is the row side of a rectangular sweep and the
// database supplies its columns. With BlockingExchange the exchange
// completes here; otherwise the wave driver waits right before the first
// panel's alignment launches, keeping the transfer hidden under matrix
// formation and the first wave's SUMMA stages.
func stageInput(g *dmat.Grid, recs []fasta.Record, cols bool, cfg Config) (*seqstore.Store, error) {
	owned, err := seqstore.Encode(recs)
	if err != nil {
		return nil, err
	}
	clock := g.Comm.Clock()
	clock.StartSection(SectionFasta)
	n := fasta.TotalSeqBytes(recs)
	clock.IOBytes(n)
	clock.Ops(float64(n) * 2)
	store, err := seqstore.FromOwned(g, owned, true, cols)
	clock.EndSection()
	if err != nil {
		return nil, err
	}
	if cfg.BlockingExchange {
		clock.Section(SectionWait, func() { err = store.Wait() })
	}
	return store, err
}

// formA extracts k-mers from the owned sequences and assembles the
// distributed |seqs|×|k-mer space| position matrix (paper Section IV-A).
// shared forms an exact all-vs-all sweep's A, which keeps only the k-mers
// two or more sequences share: B = A·Aᵀ pairs two sequences through a k-mer
// both hold and a sweep keeps no self pair, so under the Fig. 11 row bound
// B, its Flops and the graph are the whole A's while A, Aᵀ, the broadcasts
// and the product's column index shrink. The builder's owner census (lo = 2)
// counts each k-mer's sequences before the entries move. Otherwise A keeps
// every k-mer: an index's, a query batch's or a substitute run's k-mer held
// once can meet a query's k-mer or a substitute. The frequency pre-filter is
// not formA's: a banned k-mer is held by more than Config.MaxKmerFrequency
// >= 1 sequences, so it arrives in A whole, and buildTarget drops it.
func formA(g *dmat.Grid, store *seqstore.Store, cfg Config, kmerSpace spmat.Index, shared bool,
	stats *Stats) (*dmat.Mat[int32], error) {

	var lo int64
	if shared {
		lo = 2
	}
	if narrowKmers(kmerSpace) {
		return dmat.NewFromChunks(g, store.Total, kmerSpace, extractKmers[uint32](g, store, cfg, stats),
			dmat.Int32Codec, nil, lo, nil)
	}
	return dmat.NewFromChunks(g, store.Total, kmerSpace, extractKmers[uint64](g, store, cfg, stats),
		dmat.Int32Codec, nil, lo, nil)
}

// narrowKmers reports whether every k-mer id of the space fits 4 bytes
// (k <= 6 over the 24-letter alphabet), the width a build sends.
func narrowKmers(kmerSpace spmat.Index) bool { return kmerSpace <= 1<<32 }

// extractKmers returns the owned sequences' (sequence, k-mer, first
// position) entries as per-chunk columns, in sequence order, counted into
// stats.NNZA (the k-mers extracted into stats.KmersTotal): each chunk's
// k-mer ids (K, 4 or 8 bytes) and int32 positions, its rows the owned
// sequences it covers, one run each.
//
// Extraction is chunk-parallel over the owned sequences: chunk boundaries
// depend only on the sequence count, each worker reuses one k-mer buffer and
// one tagged seen-set (a new generation per sequence, no clearing), and a
// sequence's k-mers are emitted in position order into columns sized once
// from its chunk's window counts — so the chunks, read in order, are the
// same for every thread count and run. The extraction cost is charged as
// thread-parallel work (Clock.ParOps).
func extractKmers[K dmat.ID](g *dmat.Grid, store *seqstore.Store, cfg Config, stats *Stats) []dmat.Chunk[K, int32] {
	clock := g.Comm.Clock()
	n := len(store.Owned)
	threads := cfg.Threads
	if threads < 1 {
		threads = 1 // the documented contract: <= 1 runs serially
	}
	workers := parallel.Workers(threads)
	nchunks := workers * 4 // oversubscribed for balance; output is chunk-order merged
	chunks := make([]dmat.Chunk[K, int32], nchunks)
	kmers := make([]int64, nchunks)
	seenBy := make([]seenSet, workers)
	kmsBy := make([][]kmer.Kmer, workers)
	parallel.ForChunks(threads, n, nchunks, func(w, chunk, lo, hi int) {
		seen := &seenBy[w]
		windows := 0
		for _, seq := range store.Owned[lo:hi] {
			windows += max(len(seq.Codes)-cfg.K+1, 0)
		}
		// Owned sequences have consecutive global indices.
		out := dmat.Chunk[K, int32]{
			Row:  store.OwnedStart + spmat.Index(lo),
			Ends: make([]int, 0, hi-lo),
			Cols: make([]K, 0, windows),
			Vals: make([]int32, 0, windows),
		}
		for _, seq := range store.Owned[lo:hi] {
			kms := kmer.AppendCodes(kmsBy[w][:0], seq.Codes, cfg.K, true)
			kmsBy[w] = kms
			kmers[chunk] += int64(len(kms))
			seen.reset(len(kms))
			for _, km := range kms { // first occurrence of each k-mer wins
				if seen.add(km.ID) {
					out.Cols = append(out.Cols, K(km.ID))
					out.Vals = append(out.Vals, int32(km.Pos))
				}
			}
			out.Ends = append(out.Ends, len(out.Cols))
		}
		chunks[chunk] = out
	})
	for c, k := range kmers {
		stats.KmersTotal += k
		stats.NNZA += int64(len(chunks[c].Cols))
	}
	clock.ParOps(float64(stats.KmersTotal) * opsPerKmer)
	return chunks
}

// seenSet is extractKmers' per-worker first-occurrence filter: an open-addressing
// set of k-mer ids with spmat.hashScratch's generation tags, so a new
// sequence empties it in O(1). It grows monotonically to the longest
// sequence; on uint32 wraparound the tags are cleared.
type seenSet struct {
	keys  []kmer.ID
	gen   []uint32
	cur   uint32
	shift uint
}

// reset empties the set for up to n insertions at load factor <= 1/2.
func (s *seenSet) reset(n int) {
	if len(s.keys) < max(2*n, 16) {
		size := 16
		for size < 2*n {
			size <<= 1
		}
		s.keys, s.gen, s.cur = make([]kmer.ID, size), make([]uint32, size), 0
		s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}
	s.cur++
	if s.cur == 0 {
		clear(s.gen)
		s.cur = 1
	}
}

// add inserts id and reports whether it was absent.
func (s *seenSet) add(id kmer.ID) bool {
	mask := uint64(len(s.keys) - 1)
	for i := uint64(id) * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask { // Fibonacci hashing
		if s.gen[i] != s.cur {
			s.gen[i], s.keys[i] = s.cur, id
			return true
		}
		if s.keys[i] == id {
			return false
		}
	}
}

// kmerCensus is the census of A's grid column, its lists sorted global
// k-mer ids: present holds the k-mers A keeps — every k-mer it holds that is
// not banned — with counts[i] the sequences holding present[i], and banned
// the k-mers the frequency pre-filter drops, those occurring in more than
// Config.MaxKmerFrequency sequences (paper future work: over-represented
// k-mers contribute quadratically many candidates with little homology
// evidence). bannedNNZ is the banned k-mers' nonzeros in the grid column.
// The persistent index stores banned so a query batch drops the same
// columns without recounting the database.
//
// A substitute all-vs-all expansion asks the census about every substitute
// the search finds in its column or its owner receives — most of which are
// absent — once index has laid present out for it: a bit filter, 16 bits
// per member with one hashed bit each, turns away about 15 in 16 absent ids
// from 2 bytes per member; an open-addressing table settles the rest. The
// filter and the table read the high bits of the same Fibonacci hash.
type kmerCensus struct {
	present, banned []spmat.Index
	counts          []int64
	bannedNNZ       int64
	filter          []uint64
	keys            []spmat.Index // -1 marks an empty slot
	fshift, kshift  uint
}

// countKmers takes the census with one ColComm allgather
// (dmat.ColumnCounts); maxFreq <= 0 bans nothing. Collective over the grid.
func countKmers(a *dmat.Mat[int32], maxFreq int) (*kmerCensus, error) {
	cols, counts, err := a.ColumnCounts()
	if err != nil || maxFreq <= 0 {
		return &kmerCensus{present: cols, counts: counts}, err
	}
	k := &kmerCensus{present: cols[:0], counts: counts[:0]}
	for i, c := range cols {
		if n := counts[i]; n > int64(maxFreq) {
			k.banned = append(k.banned, c)
			k.bannedNNZ += n
		} else {
			k.present, k.counts = append(k.present, c), append(k.counts, n)
		}
	}
	return k, nil
}

// index builds the presence test's filter and table over present.
func (k *kmerCensus) index() {
	fbits := bits.Len(uint(max(16*len(k.present), 64) - 1))
	kbits := bits.Len(uint(max(2*len(k.present), 2) - 1))
	k.filter, k.keys = make([]uint64, 1<<fbits/64), make([]spmat.Index, 1<<kbits)
	k.fshift, k.kshift = uint(64-fbits), uint(64-kbits)
	for i := range k.keys {
		k.keys[i] = -1
	}
	mask := uint64(len(k.keys) - 1)
	for _, id := range k.present {
		h := uint64(id) * 0x9E3779B97F4A7C15
		f := h >> k.fshift
		k.filter[f/64] |= 1 << (f % 64)
		i := h >> k.kshift
		for k.keys[i] >= 0 {
			i = (i + 1) & mask
		}
		k.keys[i] = id
	}
}

// has reports whether id is present; index must have run.
func (k *kmerCensus) has(id spmat.Index) bool {
	h := uint64(id) * 0x9E3779B97F4A7C15
	if f := h >> k.fshift; k.filter[f/64]&(1<<(f%64)) == 0 {
		return false
	}
	mask := uint64(len(k.keys) - 1)
	for i := h >> k.kshift; ; i = (i + 1) & mask {
		switch k.keys[i] {
		case id:
			return true
		case -1:
			return false
		}
	}
}

// bytes is the indexed census's footprint on the live-bytes ledger.
func (k *kmerCensus) bytes() int64 {
	return 8 * int64(len(k.present)+len(k.counts)+len(k.filter)+len(k.keys))
}

// expandAS forms the whole of AS = A·S (paper Section IV-C) for a row
// operand — an index's A or a query batch's Q, after the frequency prune, so
// a banned k-mer is never searched; an all-vs-all run forms expandPresent's
// part of it. Row k of S is k itself at distance 0 plus its m
// nearest substitutes — what subkmer.Finder returns — so S is applied as an
// operator, never assembled: every local nonzero (sequence, k-mer, position)
// expands through its k-mer's list (one search per column of the block) into
// the products SpGEMM(A, S) would form, and dmat.NewFromChunks routes them
// to their owners and merges them with the closest-k-mer rule, which is
// order-free: AS is bitwise the product at any rank count
// (TestExpandASIsTheProduct multiplies it out). The searches are Fig. 15's
// "form S", the routing and assembly its "AS".
func expandAS(r *run, a *dmat.Mat[int32]) (*dmat.Mat[PosDist], error) {
	return expand(r, a, nil, nil)
}

// expandPresent forms the AS an all-vs-all sweep multiplies: the entries of
// A·S that B = (AS)·Aᵀ reads off its diagonal, from census, that of this
// rank's grid column. B(s,t) = ⊕_c AS(s,c) ⊗ A(t,c) contracts over
// k-mers, so an entry in the column of a k-mer no sequence holds meets an
// empty row of Aᵀ, and the exact entry AS(s,c) of a k-mer s alone holds
// meets only s, forming B(s,s), which no sweep keeps: dropping both leaves B
// off its diagonal and the graph as they were, and Flops falls. A lone
// k-mer is still searched: its substitutes pair other sequences with s. The
// k-mer id puts position 0 in its highest digit, so a nearest substitute
// mostly stays in its root's column block: the search drops such a
// substitute when it is absent, and the column's owner drops one that
// crossed into its grid column absent as it arrives, before it is forwarded
// or assembled — so AS is the same matrix at every rank count
// (TestExpandASPrunedIsTheProduct). The indexed census is on the ledger
// while the expansion holds it.
func expandPresent(r *run, a *dmat.Mat[int32], census *kmerCensus) (*dmat.Mat[PosDist], error) {
	census.index()
	r.clock.AllocBytes(census.bytes())
	defer r.clock.FreeBytes(census.bytes())
	return expand(r, a, census, census.has)
}

// expand is the one expansion under expandAS and expandPresent. A nil
// census keeps every entry; otherwise the exact entries of the k-mers one sequence
// holds and the absent substitutes in this column block are not formed, and
// keep is the owner's filter of the substitutes that cross into another
// (nil: none). Each root is searched into one scratch list and only what is
// kept is appended: column j's entries, its k-mer at distance 0 first when
// formed, are nbrs[ends[j]:ends[j+1]], so the chunk of AS's entries is
// sized to what survives.
func expand(r *run, a *dmat.Mat[int32], census *kmerCensus, keep func(spmat.Index) bool) (*dmat.Mat[PosDist], error) {
	finder, err := subkmer.NewFinder(r.cfg.K, scoring.NewExpense(scoring.BLOSUM62), r.cfg.SubstituteKmers)
	if err != nil {
		return nil, err
	}
	b, colOff := a.Local, a.ColOffset()
	_, colEnd := dmat.BlockRange(a.Cols, r.grid.Q, r.grid.MyCol)
	var nbrs, found []subkmer.Neighbor
	ends := make([]int, len(b.JC)+1)
	generated, size, p := 0, 0, 0
	for j, col := range b.JC {
		id := colOff + col
		lone := false // one sequence of the grid column holds the root
		if census != nil {
			// The census holds every k-mer of A's block.
			for census.present[p] < id {
				p++
			}
			lone = census.counts[p] == 1
		}
		if !lone {
			nbrs = append(nbrs, subkmer.Neighbor{ID: kmer.ID(id)})
		}
		found = finder.AppendFind(found[:0], kmer.ID(id))
		generated += len(found)
		for _, nb := range found {
			if sub := spmat.Index(nb.ID); census == nil || sub < colOff || sub >= colEnd || census.has(sub) {
				nbrs = append(nbrs, nb)
			}
		}
		ends[j+1] = len(nbrs)
		size += (b.CP[j+1] - b.CP[j]) * (ends[j+1] - ends[j])
	}
	r.clock.Section(SectionFormS, func() { r.clock.Ops(float64(len(b.JC)+generated) * opsPerSubNeighbor) })

	if narrowKmers(r.kmerSpace) {
		return buildAS[uint32](r, a, nbrs, ends, size, keep)
	}
	return buildAS[uint64](r, a, nbrs, ends, size, keep)
}

// buildAS lays the products of A's block out as one chunk of size AS
// entries, row by row — for each nonzero (sequence, k-mer, position) its
// column's entries, nbrs[ends[j]:ends[j+1]] for column j — and builds AS
// from it, under the owner's filter keep, one sequence's k-mers that share a
// substitute meeting closerKmer. A counting sort of the nonzeros by row (8
// bytes each) gives the chunk its row runs. The chunk is on the live-bytes
// ledger while it exists.
func buildAS[K dmat.ID](r *run, a *dmat.Mat[int32], nbrs []subkmer.Neighbor, ends []int, size int,
	keep func(spmat.Index) bool) (*dmat.Mat[PosDist], error) {

	b := a.Local
	type nonzero struct{ col, pos int32 } // col: b's column slot
	start := make([]int, b.NumRows+2)     // row i's nonzeros start at start[i+1] while they are placed
	for _, i := range b.IR {
		start[i+2]++
	}
	for i := range b.NumRows {
		start[i+2] += start[i+1]
	}
	byRow := make([]nonzero, b.NNZ())
	for j := range b.JC {
		for k := b.CP[j]; k < b.CP[j+1]; k++ {
			byRow[start[b.IR[k]+1]] = nonzero{int32(j), b.Vals[k]}
			start[b.IR[k]+1]++
		}
	}
	ch := dmat.Chunk[K, PosDist]{Row: a.RowOffset(), Ends: make([]int, b.NumRows),
		Cols: make([]K, 0, size), Vals: make([]PosDist, 0, size)}
	for i := range ch.Ends {
		for _, nz := range byRow[start[i]:start[i+1]] {
			for _, nb := range nbrs[ends[nz.col]:ends[nz.col+1]] {
				ch.Cols, ch.Vals = append(ch.Cols, K(nb.ID)), append(ch.Vals, PosDist{Pos: nz.pos, Dist: int32(nb.Dist)})
			}
		}
		ch.Ends[i] = len(ch.Cols)
	}
	buffered := int64(len(ch.Cols))*int64(unsafe.Sizeof(K(0))+unsafe.Sizeof(PosDist{})) + 8*int64(len(ch.Ends))
	r.clock.AllocBytes(buffered)
	r.clock.StartSection(SectionAS)
	as, err := dmat.NewFromChunks(r.grid, a.Rows, r.kmerSpace, []dmat.Chunk[K, PosDist]{ch}, PosDistCodec, closerKmer, 0, keep)
	r.clock.EndSection()
	r.clock.FreeBytes(buffered)
	return as, err
}

// restrict drops, in place, the columns of m's block whose k-mer the
// sorted list drop names: a merge of its JC with drop. It is charged as the
// elementwise pass it is, and its dropped bytes leave the ledger. m's block
// must be its own arrays, not a received frame's.
func restrict(m *dmat.Mat[int32], drop []spmat.Index) {
	b, colOff := m.Local, m.ColOffset()
	before, clock := m.LocalBytes(), m.Grid.Comm.Clock()
	clock.ParOps(float64(b.NNZ()) * dmat.VisitOps)
	cols, nnz, p := 0, 0, 0
	for j, col := range b.JC {
		c := col + colOff
		for p < len(drop) && drop[p] < c {
			p++
		}
		if p < len(drop) && drop[p] == c {
			continue
		}
		lo, hi := b.CP[j], b.CP[j+1]
		b.JC[cols], b.CP[cols] = col, nnz
		copy(b.IR[nnz:], b.IR[lo:hi])
		copy(b.Vals[nnz:], b.Vals[lo:hi])
		cols, nnz = cols+1, nnz+hi-lo
	}
	b.CP[cols] = nnz
	b.JC, b.CP, b.IR, b.Vals = b.JC[:cols], b.CP[:cols+1], b.IR[:nnz], b.Vals[:nnz]
	clock.FreeBytes(before - m.LocalBytes())
}
