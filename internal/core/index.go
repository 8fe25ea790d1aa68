package core

import (
	"fmt"

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

// RankData is one rank's decoded index artifact: the grid-independent
// resident state a warm server keeps in memory between query batches. The
// blocks and sequences are immutable once loaded — every Query wraps them
// in fresh per-run matrix views, so one RankData serves any number of runs.
type RankData struct {
	Total   spmat.Index // database sequence count
	Subs    int         // substitute k-mers the index was built with
	MaxFreq int         // frequency pre-filter the index was built with

	AT     *spmat.DCSC[int32]       // this rank's block of Aᵀ
	AST    *spmat.DCSC[PosDist]     // this rank's block of (AS)ᵀ; nil when Subs == 0
	Owned  []seqstore.Sequence      // this rank's owned database partition
	Banned map[spmat.Index]struct{} // banned k-mers in this rank's column range
	Bytes  int64                    // on-disk artifact size (cold-load IO charge)
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

	atBuf, ok := f.Section(secAT)
	if !ok {
		return nil, fmt.Errorf("core: index artifact missing %q section", secAT)
	}
	if rd.AT, err = dmat.DecodeBlock(atBuf, dmat.Int32Codec); err != nil {
		return nil, fmt.Errorf("core: index %s block: %w", secAT, err)
	}
	if rd.Subs > 0 {
		astBuf, ok := f.Section(secAST)
		if !ok {
			return nil, fmt.Errorf("core: index artifact missing %q section", secAST)
		}
		if rd.AST, err = dmat.DecodeBlock(astBuf, PosDistCodec); err != nil {
			return nil, fmt.Errorf("core: index %s block: %w", secAST, err)
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
