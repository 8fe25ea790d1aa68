package core

import (
	"sort"
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

// buildTarget runs the target-side stages — input, A, the frequency
// pre-filter, Aᵀ, AS — and returns the operands resident. forIndex builds
// what only a persisted index needs: (AS)ᵀ at any wave count (an all-vs-all
// sweep builds it itself, and only for a multi-wave split). It does not wait
// for the sequence exchange stageInput launched: the caller completes it
// where sequence data is first needed, so the transfer hides under these
// stages (paper Section V-C).
func buildTarget(r *run, owned []fasta.Record, forIndex bool) (*target, error) {
	clock, cfg := r.clock, r.cfg
	store, err := stageInput(r.grid, owned, cfg)
	if err != nil {
		return nil, err
	}
	t := &target{store: store}
	t.stats.NumSeqs = int64(store.Total)

	// --- form A: |seqs| x |k-mer space|, values = k-mer start positions ---
	clock.StartSection(SectionFormA)
	t.a, err = formA(r.grid, store, cfg, r.kmerSpace, &t.stats)
	clock.EndSection()
	if err != nil {
		return nil, err
	}
	if t.stats.NNZA, err = t.a.TryNNZ(); err != nil {
		return nil, err
	}

	// --- k-mer frequency pre-filter (paper future work) ---
	t.stats.NNZAFiltered = t.stats.NNZA
	if cfg.MaxKmerFrequency > 0 {
		clock.Section(SectionFormA, func() { t.a, t.banned, err = prefilterA(t.a, cfg) })
		if err != nil {
			return nil, err
		}
		if t.stats.NNZAFiltered, err = t.a.TryNNZ(); err != nil {
			return nil, err
		}
	}

	clock.Section(SectionTrA, func() { t.at, err = t.a.Transpose() })
	if err != nil {
		return nil, err
	}
	if cfg.SubstituteKmers == 0 {
		return t, nil
	}

	// --- substitute k-mer expansion: AS = A·S (paper Section IV-C) ---
	if t.as, err = expandAS(r, t.a); err != nil {
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

// stageInput reads this rank's FASTA share and launches the overlapped
// sequence exchange (paper Section V-C). With BlockingExchange the exchange
// completes here; otherwise the wave driver waits right before the first
// panel's alignment launches, keeping the transfer hidden under matrix
// formation and the first wave's SUMMA stages.
func stageInput(g *dmat.Grid, owned []fasta.Record, cfg Config) (*seqstore.Store, error) {
	clock := g.Comm.Clock()
	var store *seqstore.Store
	var err error
	clock.StartSection(SectionFasta)
	clock.IOBytes(fasta.TotalSeqBytes(owned))
	store, err = seqstore.Exchange(g, owned)
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
//
// Extraction is chunk-parallel over the owned sequences: chunk boundaries
// depend only on the sequence count, each worker reuses one seen-set
// (cleared per sequence), a sequence's triples are emitted in k-mer position
// order and per-chunk lists merge in chunk order — so the triple list itself,
// not just the assembled matrix, is the same for every thread count and run.
// The extraction cost is charged as thread-parallel work (Clock.ParOps).
func formA(g *dmat.Grid, store *seqstore.Store, cfg Config, kmerSpace spmat.Index,
	stats *Stats) (*dmat.Mat[int32], error) {

	clock := g.Comm.Clock()
	n := len(store.Owned)
	threads := cfg.Threads
	if threads < 1 {
		threads = 1 // the documented contract: <= 1 runs serially
	}
	workers := parallel.Workers(threads)
	nchunks := workers * 4 // oversubscribed for balance; output is chunk-order merged
	type chunkOut struct {
		triples []spmat.Triple[int32]
		kmers   int64
	}
	outs := make([]chunkOut, nchunks)
	seenBy := make([]map[kmer.ID]struct{}, workers)
	parallel.ForChunks(threads, n, nchunks, func(w, chunk, lo, hi int) {
		seen := seenBy[w]
		if seen == nil {
			seen = make(map[kmer.ID]struct{})
			seenBy[w] = seen
		}
		out := &outs[chunk]
		for _, seq := range store.Owned[lo:hi] {
			kms := kmer.ExtractCodes(seq.Codes, cfg.K, true)
			out.kmers += int64(len(kms))
			clear(seen)
			for _, km := range kms { // first occurrence of each k-mer wins
				if _, dup := seen[km.ID]; dup {
					continue
				}
				seen[km.ID] = struct{}{}
				out.triples = append(out.triples, spmat.Triple[int32]{
					Row: seq.Global, Col: spmat.Index(km.ID), Val: int32(km.Pos),
				})
			}
		}
	})

	var triples []spmat.Triple[int32]
	for i := range outs {
		stats.KmersTotal += outs[i].kmers
		triples = append(triples, outs[i].triples...)
	}
	clock.ParOps(float64(stats.KmersTotal) * opsPerKmer)
	return dmat.NewFromTriples(g, store.Total, kmerSpace, triples, dmat.Int32Codec, nil)
}

// prefilterA drops k-mers occurring in more than cfg.MaxKmerFrequency
// sequences (paper future work: over-represented k-mers contribute
// quadratically many candidates with little homology evidence). The second
// result lists the banned k-mer ids within this rank's block-column range,
// sorted — the persistent index stores them so query panels can apply the
// same filter without recounting the database.
func prefilterA(a *dmat.Mat[int32], cfg Config) (*dmat.Mat[int32], []spmat.Index, error) {
	counts, err := a.ColumnCounts()
	if err != nil {
		return nil, nil, err
	}
	maxFreq := int64(cfg.MaxKmerFrequency)
	var banned []spmat.Index
	for c, n := range counts {
		if n > maxFreq {
			banned = append(banned, c)
		}
	}
	sort.Slice(banned, func(i, j int) bool { return banned[i] < banned[j] })
	filtered := a.Prune(func(r, c spmat.Index, v int32) bool {
		return counts[c] <= maxFreq
	})
	a.Release()
	return filtered, banned, nil
}

// expandAS forms AS = A·S (paper Section IV-C) for a row operand — the
// database's A or a query batch's Q, after the frequency prune, so a banned
// k-mer is never searched. Row k of S is k itself at distance 0 plus its m
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
	finder, err := subkmer.NewFinder(r.cfg.K, scoring.NewExpense(scoring.BLOSUM62), r.cfg.SubstituteKmers)
	if err != nil {
		return nil, err
	}
	b, rowOff, colOff := a.Local, a.RowOffset(), a.ColOffset()
	triples := make([]spmat.Triple[PosDist], 0, b.NNZ()*(r.cfg.SubstituteKmers+1))
	var nbrs []subkmer.Neighbor
	generated := 0
	for j, col := range b.JC {
		c := colOff + col
		nbrs = finder.AppendFind(nbrs[:0], kmer.ID(c))
		generated += len(nbrs)
		for i := b.CP[j]; i < b.CP[j+1]; i++ {
			row, pos := rowOff+b.IR[i], b.Vals[i]
			triples = append(triples, spmat.Triple[PosDist]{Row: row, Col: c, Val: PosDist{Pos: pos}})
			for _, nb := range nbrs {
				triples = append(triples, spmat.Triple[PosDist]{
					Row: row, Col: spmat.Index(nb.ID), Val: PosDist{Pos: pos, Dist: int32(nb.Dist)},
				})
			}
		}
	}
	r.clock.Section(SectionFormS, func() { r.clock.Ops(float64(len(b.JC)+generated) * opsPerSubNeighbor) })

	buffered := int64(len(triples)) * int64(unsafe.Sizeof(spmat.Triple[PosDist]{}))
	r.clock.AllocBytes(buffered)
	r.clock.StartSection(SectionAS)
	as, err := dmat.NewFromTriples(r.grid, a.Rows, r.kmerSpace, triples, PosDistCodec, closerKmer)
	r.clock.EndSection()
	r.clock.FreeBytes(buffered)
	return as, err
}
