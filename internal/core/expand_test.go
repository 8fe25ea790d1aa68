package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/scoring"
	"repro/internal/spmat"
	"repro/internal/subkmer"
	"repro/internal/synth"
)

// TestExpandASIsTheProduct keeps the paper's algebra (Section IV-C) as the
// oracle of the one substitute mechanism: S is assembled explicitly as a
// distributed k-mer×k-mer matrix — row k holds k at distance 0 plus its m
// nearest substitutes, from the brute-force subkmer.FindNaive — and AS is
// multiplied out by the SUMMA dmat.SpGEMM(A, S) over (attach the distance,
// keep the closer k-mer). expandAS must produce that matrix bitwise at every
// rank count.
//
// The input has what makes the product non-trivial: k-mers shared by several
// rows (one search serves them all), a sequence holding a k-mer and its
// nearest substitute (two products land on one (row, column), so the
// closer-k-mer merge decides), and a poly-A tract the frequency pre-filter
// prunes out of A before the expansion.
func TestExpandASIsTheProduct(t *testing.T) {
	const k, maxSubs = 3, 10 // FindNaive enumerates 20^k candidates per root
	e := scoring.NewExpense(scoring.BLOSUM62)
	data, err := synth.Generate(synth.Config{
		Seed: 71, NumFamilies: 3, MembersMean: 4, Singletons: 4,
		MinLen: 30, MaxLen: 60, Divergence: 0.2, IndelRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := data.Records
	for i := range recs {
		if i%2 == 0 {
			recs[i].Seq = append(recs[i].Seq, "AAAAA"...)
		}
	}
	first, err := kmer.Extract(recs[0].Seq, k, true)
	if err != nil {
		t.Fatal(err)
	}
	root := first[0].ID
	nearest, err := subkmer.FindNaive(root, k, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	twin := []byte(kmer.String(root, k) + "W" + kmer.String(nearest[0].ID, k))
	recs = append(recs, fasta.Record{ID: "twin", Seq: twin}, fasta.Record{ID: "twin2", Seq: twin})

	// Row k of S for every k-mer of the input, searched once; a list for
	// fewer substitutes is a prefix of it.
	rowsOfS := map[kmer.ID][]subkmer.Neighbor{}
	for _, rec := range recs {
		kms, err := kmer.Extract(rec.Seq, k, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, km := range kms {
			if _, ok := rowsOfS[km.ID]; !ok {
				if rowsOfS[km.ID], err = subkmer.FindNaive(km.ID, k, e, maxSubs); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	for _, p := range []int{1, 4, 9} {
		for _, m := range []int{1, maxSubs} {
			t.Run(fmt.Sprintf("p%d-m%d", p, m), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.K, cfg.SubstituteKmers, cfg.MaxKmerFrequency = k, m, 4
				cl := mpi.NewCluster(p, mpi.DefaultCostModel())
				err := cl.Run(func(c *mpi.Comm) error {
					r, err := openRun(c, cfg)
					if err != nil {
						return err
					}
					defer r.close()
					n := len(recs)
					store, err := stageInput(r.grid, recs[n*c.Rank()/p:n*(c.Rank()+1)/p], cfg)
					if err != nil {
						return err
					}
					if err := store.Wait(); err != nil {
						return err
					}
					var stats Stats
					a, err := formA(r.grid, store, cfg, r.kmerSpace, &stats)
					if err != nil {
						return err
					}
					nnzA, err := a.TryNNZ()
					if err != nil {
						return err
					}
					if a, _, err = prefilterA(a, cfg); err != nil {
						return err
					}
					got, err := expandAS(r, a)
					if err != nil {
						return err
					}

					var products, shared int64
					var ts []spmat.Triple[int32]
					for j, col := range a.Local.JC {
						id := a.ColOffset() + col
						nbrs := rowsOfS[kmer.ID(id)][:m]
						holders := int64(a.Local.CP[j+1] - a.Local.CP[j])
						shared = max(shared, holders)
						products += holders * int64(1+len(nbrs))
						ts = append(ts, spmat.Triple[int32]{Row: id, Col: id})
						for _, nb := range nbrs {
							ts = append(ts, spmat.Triple[int32]{Row: id, Col: spmat.Index(nb.ID), Val: int32(nb.Dist)})
						}
					}
					// Several ranks hold the same k-mer column; their rows of S
					// agree, so min is a pure dedup.
					s, err := dmat.NewFromTriples(r.grid, r.kmerSpace, r.kmerSpace, ts, dmat.Int32Codec,
						func(x, y int32) int32 { return min(x, y) })
					if err != nil {
						return err
					}
					want, err := dmat.SpGEMM(a, s, spmat.Semiring[int32, int32, PosDist]{
						Multiply: func(_, _ spmat.Index, pos, dist int32) PosDist { return PosDist{Pos: pos, Dist: dist} },
						Add:      closerKmer,
					}, PosDistCodec, r.gemm)
					if err != nil {
						return err
					}

					nnzPruned, err := a.TryNNZ()
					if err != nil {
						return err
					}
					if products, err = c.TryAllreduceInt64("sum", products); err != nil {
						return err
					}
					if shared, err = c.TryAllreduceInt64("max", shared); err != nil {
						return err
					}
					nnzAS, err := got.TryNNZ()
					if err != nil {
						return err
					}
					gotT, err := got.GatherTriples()
					if err != nil {
						return err
					}
					wantT, err := want.GatherTriples()
					if err != nil || c.Rank() != 0 {
						return err
					}
					if nnzPruned >= nnzA {
						t.Errorf("the pre-filter pruned nothing: %d of %d nonzeros left", nnzPruned, nnzA)
					}
					if shared < 2 {
						t.Error("no k-mer is held by several rows of one block")
					}
					if products <= nnzAS {
						t.Errorf("%d products for %d nonzeros: the closer-k-mer merge never ran", products, nnzAS)
					}
					if len(gotT) == 0 || !reflect.DeepEqual(gotT, wantT) {
						t.Errorf("expandAS differs from SpGEMM(A, S): %d vs %d nonzeros", len(gotT), len(wantT))
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
