package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/synth"
)

// TestFormAMatchesMapDedup holds formA's tagged seen-set to a map-based
// first-occurrence dedup: every rank's block of A and its KmersTotal must
// equal what the owned sequences give when each sequence's k-mers are
// filtered through a fresh map, in sequence then position order. The input
// repeats one k-mer dozens of times in a sequence (homopolymer and tandem
// runs), sits at the extraction boundary (length k-1, k and k+1), holds no
// k-mer at all (all X) and repeats whole records.
func TestFormAMatchesMapDedup(t *testing.T) {
	cfg := DefaultConfig()
	k := cfg.K
	seqs := []string{
		strings.Repeat("A", 80),
		strings.Repeat("W", 7) + strings.Repeat("ACDEFGH", 12) + "MKV",
		strings.Repeat("KR", 40),
		"MKVLA"[:k-1], "MKVLAT"[:k], "MKVLATW"[:k+1],
		strings.Repeat("X", 30),
		"MSTNPKPQRKTKRNTNRRPQDVKFPGGXXGQIVGGVYLLPRRGPRLGVRATRKTSERSQPRGRRQPIPKARRPEGRTWAQPGYPWPLYGNEGCGWAGWLLSPRGSRPSWGPTDPRRRSRNLGKVIDTLTCGFADLMGYIPLVGAPLGGAARALAHGVRVLEDGVNYATGNLPGCSFSIFLLALLSCLTVPASA",
		strings.Repeat("A", 80),
		"MKVLATW",
	}
	var recs []fasta.Record
	for i, s := range seqs {
		recs = append(recs, fasta.Record{ID: fmt.Sprintf("s%d", i), Seq: []byte(s)})
	}
	for _, p := range []int{1, 4} {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("p%d-t%d", p, threads), func(t *testing.T) {
				cfg := cfg
				cfg.Threads = threads
				cl := mpi.NewCluster(p, mpi.DefaultCostModel())
				err := cl.Run(func(c *mpi.Comm) error {
					r, err := openRun(c, cfg)
					if err != nil {
						return err
					}
					defer r.close()
					n := len(recs)
					store, err := stageInput(r.grid, recs[n*c.Rank()/p:n*(c.Rank()+1)/p], true, cfg)
					if err != nil {
						return err
					}
					if err := store.Wait(); err != nil {
						return err
					}
					var stats Stats
					got, _, err := formA(r.grid, store, cfg, r.kmerSpace, false, &stats)
					if err != nil {
						return err
					}

					var ts []spmat.Triple[int32]
					var kmers int64
					for _, seq := range store.Owned {
						kms := kmer.ExtractCodes(seq.Codes, k, true)
						kmers += int64(len(kms))
						seen := map[kmer.ID]bool{}
						for _, km := range kms {
							if !seen[km.ID] {
								seen[km.ID] = true
								ts = append(ts, spmat.Triple[int32]{Row: seq.Global, Col: spmat.Index(km.ID), Val: int32(km.Pos)})
							}
						}
					}
					want, err := dmat.NewFromTriples(r.grid, store.Total, r.kmerSpace, ts, dmat.Int32Codec, nil)
					if err != nil {
						return err
					}
					if stats.KmersTotal != kmers {
						return fmt.Errorf("rank %d: KmersTotal %d, map dedup saw %d", c.Rank(), stats.KmersTotal, kmers)
					}
					if !spmat.Equal(got.Local, want.Local, func(x, y int32) bool { return x == y }) {
						return fmt.Errorf("rank %d: block of A differs from the map dedup's", c.Rank())
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSeenSetWraparound drives the tagged set through uint32 wraparound: the
// tags are cleared, so neither the last generation's entries nor the zeroed
// slots of keys never written (id 0, tag 0) read as present.
func TestSeenSetWraparound(t *testing.T) {
	var s seenSet
	s.reset(4)
	s.cur = math.MaxUint32
	for _, id := range []kmer.ID{7, 9} {
		if !s.add(id) || s.add(id) {
			t.Fatalf("generation MaxUint32: id %d not added exactly once", id)
		}
	}
	s.reset(4)
	if s.cur != 1 {
		t.Fatalf("after wraparound the generation is %d, want 1", s.cur)
	}
	for _, id := range []kmer.ID{0, 7, 9} {
		if !s.add(id) {
			t.Errorf("after wraparound id %d reads as present", id)
		}
		if s.add(id) {
			t.Errorf("after wraparound id %d added twice", id)
		}
	}
}

// TestExactFormationBytes pins the bytes a formation allocates, summed over
// the 4 ranks of one in-process run on the codec transport (what a tcp rank
// runs) over a fixed Metaclust-like input. Rank 0 reads
// runtime.MemStats.TotalAlloc between barriers that hold every rank outside
// the measured stage. Each bound is the figure measured when it was set
// plus 25 %.
//
//   - exact: formA with the owner census — extraction, the census, and the
//     routing and assembly of the kept k-mers' columns — per extracted
//     k-mer: 71.8. It was 84.8 while the kept k-mers crossed the grid as
//     24-byte triples, and 108.0 while extraction made triples too.
//   - substitute: formA keeping every k-mer, per extracted k-mer (114.6; 159.8
//     while it crossed one world all-to-all as triples), then expandAS, per
//     AS nonzero (195.3; 207.8 while it emitted and routed triples).
func TestExactFormationBytes(t *testing.T) {
	lab, err := synth.Generate(synth.DefaultMetaclustLike(600, 3))
	if err != nil {
		t.Fatal(err)
	}
	recs := lab.Records
	const p = 4
	for _, row := range []struct {
		name           string
		subs           int
		perKmer, perAS float64
	}{
		{"exact", 0, exactFormationBytes, 0},
		{"substitute", 10, substituteFormationBytes, substituteExpansionBytes},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Transport, cfg.SubstituteKmers = "codec", row.subs
			var before, formed, expanded runtime.MemStats
			var kmers, nnzAS atomic.Int64
			cl := mpi.NewCluster(p, mpi.DefaultCostModel())
			err := cl.Run(func(c *mpi.Comm) error {
				r, err := openRun(c, cfg)
				if err != nil {
					return err
				}
				defer r.close()
				n := len(recs)
				store, err := stageInput(r.grid, recs[n*c.Rank()/p:n*(c.Rank()+1)/p], true, cfg)
				if err == nil {
					err = store.Wait()
				}
				if err != nil {
					return err
				}
				var stats Stats
				read := func(m *runtime.MemStats) error {
					if err := c.TryBarrier(); err != nil {
						return err
					}
					if c.Rank() == 0 {
						runtime.ReadMemStats(m)
					}
					return c.TryBarrier()
				}
				if err := read(&before); err != nil {
					return err
				}
				a, _, err := formA(r.grid, store, cfg, r.kmerSpace, row.subs == 0, &stats)
				if err != nil {
					return err
				}
				kmers.Add(stats.NNZA)
				if err := read(&formed); err != nil || row.subs == 0 {
					return err
				}
				as, err := expandAS(r, a)
				if err != nil {
					return err
				}
				nnzAS.Add(int64(as.Local.NNZ()))
				return read(&expanded)
			})
			if err != nil {
				t.Fatal(err)
			}
			perKmer := float64(formed.TotalAlloc-before.TotalAlloc) / float64(kmers.Load())
			t.Logf("%d extracted k-mers, %.1f bytes allocated per k-mer", kmers.Load(), perKmer)
			if perKmer > row.perKmer {
				t.Errorf("formA allocated %.1f bytes per extracted k-mer, bound %.0f", perKmer, row.perKmer)
			}
			if row.subs == 0 {
				return
			}
			perAS := float64(expanded.TotalAlloc-formed.TotalAlloc) / float64(nnzAS.Load())
			t.Logf("%d AS nonzeros, %.1f bytes allocated per nonzero", nnzAS.Load(), perAS)
			if perAS > row.perAS {
				t.Errorf("expandAS allocated %.1f bytes per AS nonzero, bound %.0f", perAS, row.perAS)
			}
		})
	}
}

// The bounds of TestExactFormationBytes, in bytes per extracted k-mer or per
// AS nonzero.
const (
	exactFormationBytes      = 90
	substituteFormationBytes = 143
	substituteExpansionBytes = 244
)
