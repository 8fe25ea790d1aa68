package core

import (
	"math/bits"
	"slices"
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

	// --- form A: |seqs| x |k-mer space|, values = k-mer start positions ---
	// An exact all-vs-all sweep forms it with the k-mers two sequences
	// share, pruned before the shuffle by the owner census; an index and a
	// substitute run keep every k-mer: a query's k-mer or another sequence's
	// substitute can land on one only one sequence holds.
	exact := cfg.SubstituteKmers == 0 && !forIndex
	var nnz, banned int64
	clock.StartSection(SectionFormA)
	if exact {
		t.a, nnz, banned, err = formSharedA(r.grid, store, cfg, r.kmerSpace, &t.stats)
	} else if t.a, err = formA(r.grid, store, cfg, r.kmerSpace, &t.stats); err == nil {
		nnz = int64(t.a.Local.NNZ())
	}
	clock.EndSection()
	if err != nil {
		return nil, err
	}
	if t.stats.NNZA, err = r.comm.TryAllreduceInt64("sum", nnz); err != nil {
		return nil, err
	}

	// --- the grid column's k-mer census: the frequency pre-filter (paper
	// future work) of an index or a substitute run, and the expansion's
	// presence test, read one ---
	var kmers columnKmers
	if !exact && (cfg.MaxKmerFrequency > 0 || !forIndex) {
		clock.Section(SectionFormA, func() {
			if kmers, err = countKmers(t.a, cfg.MaxKmerFrequency); err == nil && cfg.MaxKmerFrequency > 0 {
				restrict(t.a, kmers.kept)
			}
		})
		if err != nil {
			return nil, err
		}
		t.banned = kmers.banned
		// Every rank of a grid column holds that column's banned total, so
		// one rank per grid column reports it.
		if r.grid.MyRow == 0 {
			banned = kmers.bannedNNZ
		}
	}
	// NNZAFiltered counts what the frequency pre-filter kept, shared or not,
	// in one allreduce of the census owners' (exact) or the grid columns'
	// banned nonzeros; with no frequency limit nothing is banned.
	t.stats.NNZAFiltered = t.stats.NNZA
	if cfg.MaxKmerFrequency > 0 {
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
	// it keeps only the k-mers A holds.
	if !forIndex {
		t.as, err = expandPresent(r, t.a, kmers.kept)
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
// distributed |seqs|×|k-mer space| position matrix (paper Section IV-A)
// with every k-mer: the A of an index, a query batch and a substitute run.
func formA(g *dmat.Grid, store *seqstore.Store, cfg Config, kmerSpace spmat.Index,
	stats *Stats) (*dmat.Mat[int32], error) {

	var ts []spmat.Triple[int32]
	if narrowKmers(kmerSpace) {
		ts = dmat.Triples(extractKmers[uint32](g, store, cfg, stats))
	} else {
		ts = dmat.Triples(extractKmers[uint64](g, store, cfg, stats))
	}
	return dmat.NewFromTriples(g, store.Total, kmerSpace, ts, dmat.Int32Codec, nil)
}

// formSharedA is formA for an exact all-vs-all sweep, which keeps only the
// k-mers two or more sequences share and, with Config.MaxKmerFrequency set,
// at most that many. B = A·Aᵀ pairs two sequences through a k-mer both
// hold, and a sweep keeps no self pair: with the Fig. 11 row bound a column
// of A holding one nonzero never reaches a multiply, so B, its Flops and the
// graph are those of the whole A while A, Aᵀ, every wave's broadcasts and
// the local product's column index shrink. The owner census
// (dmat.NewShared) counts each k-mer's sequences before the shuffle, so
// only the kept k-mers become triples and are shuffled, sorted and
// assembled. It returns A, this rank's extracted nonzeros (A's before the
// prune; the k-mers are distinct (sequence, k-mer) pairs) and the nonzeros
// of the frequency-banned k-mers this rank counted as their census owner.
func formSharedA(g *dmat.Grid, store *seqstore.Store, cfg Config, kmerSpace spmat.Index,
	stats *Stats) (a *dmat.Mat[int32], nnz, banned int64, err error) {

	if narrowKmers(kmerSpace) {
		return sharedA(g, store, kmerSpace, extractKmers[uint32](g, store, cfg, stats), cfg.MaxKmerFrequency)
	}
	return sharedA(g, store, kmerSpace, extractKmers[uint64](g, store, cfg, stats), cfg.MaxKmerFrequency)
}

// sharedA is formSharedA over the extracted chunks, which it consumes.
func sharedA[K dmat.ID](g *dmat.Grid, store *seqstore.Store, kmerSpace spmat.Index, chunks []dmat.Chunk[K, int32],
	maxFreq int) (a *dmat.Mat[int32], nnz, banned int64, err error) {

	for _, ch := range chunks {
		nnz += int64(len(ch.Cols))
	}
	a, banned, err = dmat.NewShared(g, store.Total, kmerSpace, chunks, dmat.Int32Codec, 2, int64(maxFreq))
	return a, nnz, banned, err
}

// narrowKmers reports whether every k-mer id of the space fits 4 bytes
// (k <= 6 over the 24-letter alphabet), the width the census sends.
func narrowKmers(kmerSpace spmat.Index) bool { return kmerSpace <= 1<<32 }

// extractKmers returns the owned sequences' (sequence, k-mer, first
// position) entries as per-chunk columns, in sequence order: each chunk's
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
	for _, k := range kmers {
		stats.KmersTotal += k
	}
	clock.ParOps(float64(stats.KmersTotal) * opsPerKmer)
	return chunks
}

// seenSet is formA's per-worker first-occurrence filter: an open-addressing
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

// columnKmers is the census of A's grid column, both lists sorted global
// k-mer ids: kept holds the k-mers A keeps — every k-mer it holds that is
// not banned — and banned the k-mers the frequency pre-filter drops, those
// occurring in more than Config.MaxKmerFrequency sequences (paper future
// work: over-represented k-mers contribute quadratically many candidates
// with little homology evidence). bannedNNZ is the banned k-mers' nonzeros
// in the grid column. The persistent index stores banned so query panels
// can apply the same filter without recounting the database.
type columnKmers struct {
	kept, banned []spmat.Index
	bannedNNZ    int64
}

// countKmers takes the census with one ColComm allgather
// (dmat.ColumnCounts); maxFreq <= 0 bans nothing. It serves the callers that
// need the grid column's list itself — a substitute run's presence test and
// an index's banned list — where an exact all-vs-all run asks the owner
// census of formSharedA instead. Collective over the grid.
func countKmers(a *dmat.Mat[int32], maxFreq int) (columnKmers, error) {
	cols, counts, err := a.ColumnCounts()
	if err != nil || maxFreq <= 0 {
		return columnKmers{kept: cols}, err
	}
	k := columnKmers{kept: cols[:0]}
	for i, c := range cols {
		if n := counts[i]; n > int64(maxFreq) {
			k.banned = append(k.banned, c)
			k.bannedNNZ += n
		} else {
			k.kept = append(k.kept, c)
		}
	}
	return k, nil
}

// prefilter drops the banned k-mers' columns from a, which it releases: a
// query batch's Q, whose banned list comes from the index.
func (k columnKmers) prefilter(a *dmat.Mat[int32]) *dmat.Mat[int32] {
	filtered := a.Prune(func(_, c spmat.Index, _ int32) bool {
		_, banned := slices.BinarySearch(k.banned, c)
		return !banned
	})
	a.Release()
	return filtered
}

// expandAS forms the whole of AS = A·S (paper Section IV-C) for a row
// operand — an index's A or a query batch's Q, after the frequency prune, so
// a banned k-mer is never searched; an all-vs-all run forms expandPresent's
// restriction of it. Row k of S is k itself at distance 0 plus its m
// nearest substitutes — what subkmer.Finder returns — so S is applied as an
// operator, never assembled: every local nonzero (sequence, k-mer, position)
// expands through its k-mer's list (one search per column of the block) into
// the products SpGEMM(A, S) would form, and NewFromTriples routes them to
// their owners and merges them with the closest-k-mer rule, which is
// order-free: AS is bitwise the product at any rank count
// (TestExpandASIsTheProduct multiplies it out). The searches are Fig. 15's
// "form S", the shuffle and assembly its "AS"; the triple list is on the
// live-bytes ledger while it exists, as the product's stage transients were.
func expandAS(r *run, a *dmat.Mat[int32]) (*dmat.Mat[PosDist], error) {
	return expand(r, a, nil)
}

// expandPresent forms the AS an all-vs-all sweep multiplies: A·S restricted
// to the columns of the k-mers A holds (present, the sorted census of this
// rank's grid column). B = (AS)·Aᵀ contracts over k-mers, so a column of AS
// whose k-mer no sequence holds meets an empty row of Aᵀ and adds nothing;
// dropping it leaves B, its Flops and the graph as they were. The k-mer id
// puts position 0 in its highest digit, so a nearest substitute mostly
// stays in its root's column block: the search drops such a substitute when
// it is absent, before any triple is formed, and the owner drops what
// crossed into its grid column unchecked once AS is assembled — so AS is the
// same matrix at every rank count (TestExpandASPrunedIsTheProduct). The
// presence set is on the ledger while the expansion holds it.
func expandPresent(r *run, a *dmat.Mat[int32], present []spmat.Index) (*dmat.Mat[PosDist], error) {
	set := newKmerSet(present)
	r.clock.AllocBytes(set.bytes())
	defer r.clock.FreeBytes(set.bytes())
	as, err := expand(r, a, set)
	if err != nil {
		return nil, err
	}
	r.clock.Section(SectionAS, func() { restrict(as, present) })
	return as, nil
}

// expand is the one expansion under expandAS and expandPresent; a nil set
// keeps every substitute. The searches run first, into one list of the
// substitutes kept per local column, so the triple buffer is sized to what
// survives them.
func expand(r *run, a *dmat.Mat[int32], set *kmerSet) (*dmat.Mat[PosDist], error) {
	finder, err := subkmer.NewFinder(r.cfg.K, scoring.NewExpense(scoring.BLOSUM62), r.cfg.SubstituteKmers)
	if err != nil {
		return nil, err
	}
	b, rowOff, colOff := a.Local, a.RowOffset(), a.ColOffset()
	_, colEnd := dmat.BlockRange(a.Cols, r.grid.Q, r.grid.MyCol)
	var nbrs []subkmer.Neighbor
	ends := make([]int, len(b.JC)) // column j's substitutes are nbrs[ends[j-1]:ends[j]]
	generated, size := 0, 0
	for j, col := range b.JC {
		start := len(nbrs)
		nbrs = finder.AppendFind(nbrs, kmer.ID(colOff+col))
		generated += len(nbrs) - start
		if set != nil {
			kept := nbrs[:start]
			for _, nb := range nbrs[start:] {
				if id := spmat.Index(nb.ID); id < colOff || id >= colEnd || set.has(id) {
					kept = append(kept, nb)
				}
			}
			nbrs = kept
		}
		ends[j] = len(nbrs)
		size += (b.CP[j+1] - b.CP[j]) * (1 + len(nbrs) - start)
	}
	r.clock.Section(SectionFormS, func() { r.clock.Ops(float64(len(b.JC)+generated) * opsPerSubNeighbor) })

	triples := make([]spmat.Triple[PosDist], 0, size)
	start := 0
	for j, col := range b.JC {
		c := colOff + col
		for i := b.CP[j]; i < b.CP[j+1]; i++ {
			row, pos := rowOff+b.IR[i], b.Vals[i]
			triples = append(triples, spmat.Triple[PosDist]{Row: row, Col: c, Val: PosDist{Pos: pos}})
			for _, nb := range nbrs[start:ends[j]] {
				triples = append(triples, spmat.Triple[PosDist]{
					Row: row, Col: spmat.Index(nb.ID), Val: PosDist{Pos: pos, Dist: int32(nb.Dist)},
				})
			}
		}
		start = ends[j]
	}

	buffered := int64(len(triples)) * int64(unsafe.Sizeof(spmat.Triple[PosDist]{}))
	r.clock.AllocBytes(buffered)
	r.clock.StartSection(SectionAS)
	as, err := dmat.NewFromTriples(r.grid, a.Rows, r.kmerSpace, triples, PosDistCodec, closerKmer)
	r.clock.EndSection()
	r.clock.FreeBytes(buffered)
	return as, err
}

// kmerSet is the census of a grid column's present k-mers, asked about
// every substitute the search finds in that column — most of which are
// absent. A bit filter, 16 bits per member with one hashed bit each, turns
// away about 15 in 16 absent ids from 2 bytes per member; an
// open-addressing table settles the rest. The filter and the table read the
// high bits of the same Fibonacci hash.
type kmerSet struct {
	present        []spmat.Index // sorted
	filter         []uint64
	keys           []spmat.Index // -1 marks an empty slot
	fshift, kshift uint
}

func newKmerSet(present []spmat.Index) *kmerSet {
	fbits := bits.Len(uint(max(16*len(present), 64) - 1))
	kbits := bits.Len(uint(max(2*len(present), 2) - 1))
	s := &kmerSet{present: present, filter: make([]uint64, 1<<fbits/64), keys: make([]spmat.Index, 1<<kbits),
		fshift: uint(64 - fbits), kshift: uint(64 - kbits)}
	for i := range s.keys {
		s.keys[i] = -1
	}
	mask := uint64(len(s.keys) - 1)
	for _, id := range present {
		h := uint64(id) * 0x9E3779B97F4A7C15
		f := h >> s.fshift
		s.filter[f/64] |= 1 << (f % 64)
		i := h >> s.kshift
		for s.keys[i] >= 0 {
			i = (i + 1) & mask
		}
		s.keys[i] = id
	}
	return s
}

// has reports whether id is present.
func (s *kmerSet) has(id spmat.Index) bool {
	h := uint64(id) * 0x9E3779B97F4A7C15
	if f := h >> s.fshift; s.filter[f/64]&(1<<(f%64)) == 0 {
		return false
	}
	mask := uint64(len(s.keys) - 1)
	for i := h >> s.kshift; ; i = (i + 1) & mask {
		switch s.keys[i] {
		case id:
			return true
		case -1:
			return false
		}
	}
}

// bytes is the set's footprint on the live-bytes ledger.
func (s *kmerSet) bytes() int64 {
	return 8 * int64(len(s.present)+len(s.filter)+len(s.keys))
}

// restrict drops, in place, the columns of m's block whose k-mer keep (a
// sorted census of the grid column) lacks: a merge of its JC with keep. It
// is charged as the elementwise pass it is, and its dropped bytes leave the
// ledger. m's block must be its own arrays, not a received frame's.
func restrict[T any](m *dmat.Mat[T], keep []spmat.Index) {
	b, colOff := m.Local, m.ColOffset()
	before, clock := m.LocalBytes(), m.Grid.Comm.Clock()
	clock.ParOps(float64(b.NNZ()) * dmat.VisitOps)
	cols, nnz, p := 0, 0, 0
	for j, col := range b.JC {
		c := col + colOff
		for p < len(keep) && keep[p] < c {
			p++
		}
		if p == len(keep) || keep[p] != c {
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
