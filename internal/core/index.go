package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/mpi"
	"repro/internal/seqstore"
	"repro/internal/spmat"
	"repro/internal/wire"
)

// Persistent-index section names. Each rank's artifact carries its block of
// Aᵀ (the operand every query multiply consumes), its block of (AS)ᵀ when
// the substitute path is enabled, its owned sequence partition, and the
// k-mers its block-column range banned under the frequency pre-filter.
// Artifacts written before the substitute search became allocation-free also
// carry a "nbr" section (the build's neighbor lists); it is ignored, like any
// section this list does not name.
const (
	secAT  = "at"
	secAST = "ast"
	secSeq = "seq"
	secBan = "ban"
)

// Manifest meta keys (shared with the per-rank files where they overlap).
const (
	metaTotal   = "total"
	metaK       = "k"
	metaSubs    = "subs"
	metaMaxFreq = "maxfreq"
)

// BuildIndex runs the build-once half of the pipeline — the target-build
// stages every all-vs-all run starts with — and persists this rank's share
// as an index artifact in dir. Collective; every rank writes its own file
// (the manifest is the caller's to write, from data it already holds). The
// returned stats mirror the matrix-stage counters of a full run.
func BuildIndex(comm *mpi.Comm, owned []fasta.Record, cfg Config, dir string) (*Stats, error) {
	r, err := openRun(comm, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	// The query sweep's dual product needs Aᵀ and (AS)ᵀ, never A or AS.
	t, err := buildTarget(r, owned, true)
	if err != nil {
		return nil, err
	}
	t.a.Release()
	if t.as != nil {
		t.as.Release()
	}
	// The owned partition is persisted as-is, but every in-flight message
	// must be consumed before the run ends.
	if !cfg.BlockingExchange {
		r.clock.Section(SectionWait, func() { err = t.store.Wait() })
		if err != nil {
			return nil, err
		}
	}

	f := &index.File{
		Fingerprint: IndexFingerprint(cfg, comm.Size()),
		Rank:        comm.Rank(),
		Ranks:       comm.Size(),
		Meta: map[string]uint64{
			metaTotal:   uint64(t.store.Total),
			metaK:       uint64(cfg.K),
			metaSubs:    uint64(cfg.SubstituteKmers),
			metaMaxFreq: uint64(cfg.MaxKmerFrequency),
		},
		Sections: []index.Section{
			{Name: secAT, Payload: dmat.EncodeBlock(t.at.Local, dmat.Int32Codec)},
			{Name: secSeq, Payload: seqstore.AppendSequences(nil, t.store.Owned)},
		},
	}
	if t.ast != nil {
		f.Sections = append(f.Sections, index.Section{Name: secAST, Payload: dmat.EncodeBlock(t.ast.Local, PosDistCodec)})
	}
	if t.banned != nil {
		f.Sections = append(f.Sections, index.Section{Name: secBan, Payload: encodeBanned(t.banned)})
	}
	size, err := index.Save(dir, f)
	if err != nil {
		return nil, err
	}
	r.clock.IOBytes(size)
	t.at.Release()
	if t.ast != nil {
		t.ast.Release()
	}

	if t.stats.KmersTotal, err = comm.TryAllreduceInt64("sum", t.stats.KmersTotal); err != nil {
		return nil, err
	}
	return &t.stats, nil
}

// RankData is one rank's share of a loaded index: the resident state a warm
// server keeps in memory between query batches. The postings come from the
// artifact; the target store, the column side of the database this rank's
// batches align against, is fetched by the first batch that succeeds and kept
// (a batch that fails installs nothing, so the next one fetches again).
// Every Query charges the postings to its run's live-bytes ledger and reads
// them without writing, so one RankData serves any number of runs, as long
// as a cluster's ranks all bring RankData that answered the same batches
// (the first fetch is collective).
type RankData struct {
	Total   spmat.Index // database sequence count
	Subs    int         // substitute k-mers the index was built with
	MaxFreq int         // frequency pre-filter the index was built with

	at     *postings[int32]         // this rank's block of Aᵀ, k-mer-major
	ast    *postings[PosDist]       // this rank's block of (AS)ᵀ; nil when Subs == 0
	Owned  []seqstore.Sequence      // this rank's owned database partition
	Banned map[spmat.Index]struct{} // banned k-mers in this rank's column range
	Bytes  int64                    // on-disk artifact size (cold-load IO charge)

	targets *seqstore.Store // the column side of the database, once fetched
}

// LoadRankData reads and decodes rank's artifact from dir, verifying the
// fingerprint against cfg. Plain local disk I/O — no collectives — so a
// server can load all rank slots before spinning up a cluster.
func LoadRankData(dir string, rank, ranks int, cfg Config) (*RankData, error) {
	f, size, err := index.Open(dir, rank, ranks, IndexFingerprint(cfg, ranks))
	if err != nil {
		return nil, err
	}
	total := spmat.Index(f.Meta[metaTotal])
	if total <= 0 {
		return nil, fmt.Errorf("core: index artifact has no sequences")
	}
	if int(f.Meta[metaK]) != cfg.K {
		return nil, fmt.Errorf("core: index built with k=%d, queried with k=%d", f.Meta[metaK], cfg.K)
	}
	rd := &RankData{
		Total:   total,
		Subs:    int(f.Meta[metaSubs]),
		MaxFreq: int(f.Meta[metaMaxFreq]),
		Bytes:   size,
	}
	if rd.at, err = loadPostings(f, secAT, dmat.Int32Codec); err != nil {
		return nil, err
	}
	if rd.Subs > 0 {
		if rd.ast, err = loadPostings(f, secAST, PosDistCodec); err != nil {
			return nil, err
		}
	}
	seqBuf, ok := f.Section(secSeq)
	if !ok {
		return nil, fmt.Errorf("core: index artifact missing %q section", secSeq)
	}
	if rd.Owned, err = seqstore.DecodeSequences(seqBuf); err != nil {
		return nil, err
	}
	if banBuf, ok := f.Section(secBan); ok {
		if rd.Banned, err = decodeBanned(banBuf); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// loadPostings decodes the block section name — the DCSC frame BuildIndex
// wrote, target-major — and re-lays it k-mer-major. The decoded block is
// garbage once the postings are filled.
func loadPostings[V any](f *index.File, name string, codec dmat.Codec[V]) (*postings[V], error) {
	buf, ok := f.Section(name)
	if !ok {
		return nil, fmt.Errorf("core: index artifact missing %q section", name)
	}
	blk, err := dmat.DecodeBlock(buf, codec)
	if err != nil {
		return nil, fmt.Errorf("core: index %s block: %w", name, err)
	}
	if blk.NumCols > math.MaxInt32 {
		return nil, fmt.Errorf("core: index %s block spans %d targets", name, blk.NumCols)
	}
	return newPostings(blk), nil
}

// resident is what the postings of rd cost the live-bytes ledger.
func (rd *RankData) resident() int64 {
	n := rd.at.bytes()
	if rd.ast != nil {
		n += rd.ast.bytes()
	}
	return n
}

// fetchTargets launches the cold exchange of the database's column side —
// the sequences a rectangular sweep reads through ColSeq — over the
// partition the artifact holds. Collective; a warm batch reuses the store
// its first successful batch fetched instead (Query).
func (rd *RankData) fetchTargets(g *dmat.Grid) (*seqstore.Store, error) {
	clock := g.Comm.Clock()
	clock.StartSection(SectionFasta)
	st, err := seqstore.FromOwned(g, rd.Owned, false, true)
	clock.EndSection()
	if err != nil {
		return nil, err
	}
	if st.Total != rd.Total {
		return nil, fmt.Errorf("core: index partition drifted: %d sequences exchanged, artifact says %d",
			st.Total, rd.Total)
	}
	return st, nil
}

// postings is one rank's block of a k-mer × database operand — Aᵀ(i, j), or
// (AS)ᵀ(i, j) on a substitute index — laid out k-mer-major as parallel
// arrays: entry e holds a block-local k-mer (key[e]), a block-local target
// (tgt[e]) and the value (val[e]: the position, and the distance for (AS)ᵀ).
// Entries ascend by k-mer, then by target, so a batch k-mer finds its targets
// by a search and a panel its targets inside them by a second one. 12 bytes an entry for Aᵀ and 16
// for (AS)ᵀ, what the target-major DCSC holds in its IR and values alone.
//
// key holds the low 32 bits of the k-mer. A block wider than 2^32 k-mers
// (k >= 7 on small grids) splits into segments, one per high half present:
// segment s holds the entries from segAt[s] on, whose k-mers' high half is
// segHi[s]. Otherwise there is one segment.
type postings[V any] struct {
	width spmat.Index // targets in the block: the extent panel ranges cut
	segHi []uint32
	segAt []int
	key   []uint32
	tgt   []int32
	val   []V
}

// newPostings lays a target-major block out k-mer-major, into arrays of its
// exact size: a counting sort on the top bits of the k-mer — about one bucket
// per entry, none straddling a multiple of 2^32 — fills the buckets in target
// order, and each bucket is then sorted by k-mer. No copy of the block, no
// permutation: the counts are the only scratch (width/2^32 of them when that
// is more than the entries, k >= 11 on small grids).
func newPostings[V any](b *spmat.DCSC[V]) *postings[V] {
	n := b.NNZ()
	top := uint64(max(b.NumRows-1, 0))
	shift := min(max(bits.Len64(top)-bits.Len(uint(n)), 0), 32)
	end := make([]int32, int(top>>shift)+1) // counts, then where each bucket ends
	for _, k := range b.IR {
		end[k>>shift]++
	}
	var at int32
	for i, c := range end {
		end[i] = at
		at += c
	}
	p := &postings[V]{width: b.NumCols, key: make([]uint32, n), tgt: make([]int32, n), val: make([]V, n)}
	for c, t := range b.JC {
		for e := b.CP[c]; e < b.CP[c+1]; e++ {
			k := b.IR[e]
			i := end[k>>shift]
			end[k>>shift]++
			p.key[i], p.tgt[i], p.val[i] = uint32(k), int32(t), b.Vals[e]
		}
	}
	lo := 0
	for bucket, hi := range end {
		if hi := int(hi); hi > lo {
			p.sortBucket(lo, hi)
			if h := uint32(uint64(bucket) << shift >> 32); len(p.segHi) == 0 || p.segHi[len(p.segHi)-1] != h {
				p.segHi = append(p.segHi, h)
				p.segAt = append(p.segAt, lo)
			}
			lo = hi
		}
	}
	return p
}

// sortBucket orders entries [lo, hi), which share their k-mers' high half,
// by k-mer: an insertion sort, stable, so the targets of a k-mer stay in the
// ascending order the buckets were filled in. Buckets hold an entry or two.
func (p *postings[V]) sortBucket(lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		k, t, v := p.key[i], p.tgt[i], p.val[i]
		j := i
		for ; j > lo && p.key[j-1] > k; j-- {
			p.key[j], p.tgt[j], p.val[j] = p.key[j-1], p.tgt[j-1], p.val[j-1]
		}
		p.key[j], p.tgt[j], p.val[j] = k, t, v
	}
}

// span returns the entries [a, z) of block-local k-mer key whose targets lie
// in [lo, hi), and next, where the k-mer's entries end. from is an entry no
// later than the k-mer's first — 0, or the next of a smaller k-mer — so the
// ascending k-mers of a batch row gallop forward from one another instead of
// each searching the whole block.
func (p *postings[V]) span(key spmat.Index, from int, lo, hi int32) (a, z, next int) {
	s, ok := slices.BinarySearch(p.segHi, uint32(key>>32))
	if !ok {
		return from, from, from
	}
	end := len(p.key)
	if s+1 < len(p.segAt) {
		end = p.segAt[s+1]
	}
	k := uint32(key)
	a = max(from, p.segAt[s])
	if a < end && p.key[a] < k {
		step := 1
		for a+step < end && p.key[a+step] < k {
			a += step
			step *= 2
		}
		i, _ := slices.BinarySearch(p.key[a+1:min(a+step, end)], k)
		a += 1 + i
	}
	for next = a; next < end && p.key[next] == k; next++ {
	}
	z = next
	if lo > 0 {
		i, _ := slices.BinarySearch(p.tgt[a:z], lo)
		a += i
	}
	if hi < int32(p.width) {
		i, _ := slices.BinarySearch(p.tgt[a:z], hi)
		z = a + i
	}
	return a, z, next
}

// bytes is the postings' footprint, charged to every run that reads them.
func (p *postings[V]) bytes() int64 {
	var zero V
	return int64(len(p.segHi))*12 + int64(len(p.key))*(8+int64(unsafe.Sizeof(zero)))
}

func encodeBanned(banned []spmat.Index) []byte {
	buf := wire.AppendU64(nil, uint64(len(banned)))
	for _, id := range banned {
		buf = wire.AppendU64(buf, uint64(id))
	}
	return buf
}

func decodeBanned(buf []byte) (map[spmat.Index]struct{}, error) {
	r := wire.NewReader(buf)
	n := r.Count(8)
	out := make(map[spmat.Index]struct{}, n)
	for i := 0; i < n; i++ {
		out[spmat.Index(r.U64())] = struct{}{}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: banned k-mers: %w", err)
	}
	return out, nil
}
