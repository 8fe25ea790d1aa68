package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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
					store, err := stageInput(r.grid, recs[n*c.Rank()/p:n*(c.Rank()+1)/p], true, cfg)
					if err != nil {
						return err
					}
					if err := store.Wait(); err != nil {
						return err
					}
					var stats Stats
					a, err := formA(r.grid, store, cfg, r.kmerSpace, false, &stats)
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

// TestExpandASPrunedIsTheProduct holds the AS an all-vs-all sweep multiplies
// to the same algebra: expandPresent must produce SpGEMM(A, S′) restricted
// to the columns of the k-mers A holds after the frequency prune, entry for
// entry at every rank count, with no banned k-mer left, where S′ is S
// without the diagonal entry of each k-mer one sequence holds — so AS holds
// no exact entry of such a k-mer, while the full AS does. B = (AS)·Aᵀ formed
// from it must equal B formed from the full AS off the diagonal — the same
// entries, counts and seeds — at fewer Flops. The input is
// TestExpandASIsTheProduct's, with the twin records rebuilt so they straddle
// a block boundary at p = 9: their root lies in the first column block, its
// nearest substitute in the second. A record holding the root alone makes
// that substitute an entry of AS which is present (the twins hold it) and
// crosses to another owner unjudged by its sender. The expansion without
// the owner's filter shows that the owner dropped absent arrivals before
// assembly whenever the grid has several columns: nothing after the build
// restricts AS.
func TestExpandASPrunedIsTheProduct(t *testing.T) {
	const k, maxSubs, maxFreq = 3, 10, 4
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
	held := map[kmer.ID]bool{}
	for _, rec := range recs {
		kms, err := kmer.Extract(rec.Seq, k, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, km := range kms {
			held[km.ID] = true
		}
	}
	space := spmat.Index(kmer.SpaceSize(k))
	_, boundary := dmat.BlockRange(space, 3, 0)
	standard := func(id kmer.ID) bool { // no B, Z, X or *: extraction skips those
		return !strings.ContainsAny(kmer.String(id, k), "BZX*")
	}
	finder, err := subkmer.NewFinder(k, e, 1)
	if err != nil {
		t.Fatal(err)
	}
	var root, nearest kmer.ID
	var nb []subkmer.Neighbor
	for id := kmer.ID(boundary - 1); id > 0 && nearest == 0; id-- {
		if !standard(id) || held[id] {
			continue
		}
		if nb = finder.AppendFind(nb[:0], id); spmat.Index(nb[0].ID) >= boundary && !held[nb[0].ID] {
			root, nearest = id, nb[0].ID
		}
	}
	if nearest == 0 {
		t.Fatal("no k-mer below the block boundary has its nearest substitute past it")
	}
	twin := []byte(kmer.String(root, k) + "W" + kmer.String(nearest, k))
	recs = append(recs, fasta.Record{ID: "twin", Seq: twin}, fasta.Record{ID: "twin2", Seq: twin},
		fasta.Record{ID: "root", Seq: []byte(kmer.String(root, k))})

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
				cfg.K, cfg.SubstituteKmers, cfg.MaxKmerFrequency = k, m, maxFreq
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
					a, err := formA(r.grid, store, cfg, r.kmerSpace, false, &stats)
					if err != nil {
						return err
					}
					unfilteredT, err := a.GatherTriples()
					if err != nil {
						return err
					}
					census, err := countKmers(a, cfg.MaxKmerFrequency)
					if err != nil {
						return err
					}
					restrict(a, census.banned)
					full, err := expandAS(r, a)
					if err != nil {
						return err
					}
					census.index()
					unchecked, err := expand(r, a, census, nil) // no owner's filter
					if err != nil {
						return err
					}
					pruned, err := expandPresent(r, a, census)
					if err != nil {
						return err
					}

					var ts []spmat.Triple[int32] // S′
					for _, col := range a.Local.JC {
						id := a.ColOffset() + col
						if at, ok := slices.BinarySearch(census.present, id); !ok || census.counts[at] > 1 {
							ts = append(ts, spmat.Triple[int32]{Row: id, Col: id})
						}
						for _, nb := range rowsOfS[kmer.ID(id)][:m] {
							ts = append(ts, spmat.Triple[int32]{Row: id, Col: spmat.Index(nb.ID), Val: int32(nb.Dist)})
						}
					}
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
					at, err := a.Transpose()
					if err != nil {
						return err
					}
					f := symmetricFrame(r.grid)
					bFull, err := dmat.SpGEMM(full, at, f.subRows(), OverlapCodec, r.gemm)
					if err != nil {
						return err
					}
					bPruned, err := dmat.SpGEMM(pruned, at, f.subRows(), OverlapCodec, r.gemm)
					if err != nil {
						return err
					}

					nnzUnchecked, err := unchecked.TryNNZ()
					if err != nil {
						return err
					}
					var gathered [4][]spmat.Triple[PosDist]
					for i, mat := range []*dmat.Mat[PosDist]{pruned, want, full, unchecked} {
						if gathered[i], err = mat.GatherTriples(); err != nil {
							return err
						}
					}
					prunedT, wantT, fullT := gathered[0], gathered[1], gathered[2]
					aT, err := a.GatherTriples()
					if err != nil {
						return err
					}
					bFullT, err := bFull.GatherTriples()
					if err != nil {
						return err
					}
					bPrunedT, err := bPruned.GatherTriples()
					if err != nil || c.Rank() != 0 {
						return err
					}

					counts := map[spmat.Index]int{}
					for _, tr := range unfilteredT {
						counts[tr.Col]++
					}
					present := map[spmat.Index]bool{}
					for _, tr := range aT {
						present[tr.Col] = true
					}
					var restricted []spmat.Triple[PosDist]
					for _, tr := range wantT {
						if present[tr.Col] {
							restricted = append(restricted, tr)
						}
					}
					if len(prunedT) == 0 || !reflect.DeepEqual(prunedT, restricted) {
						t.Errorf("pruned AS differs from SpGEMM(A, S′) on A's k-mers: %d vs %d nonzeros",
							len(prunedT), len(restricted))
					}
					if len(prunedT) >= len(fullT) {
						t.Errorf("the restriction dropped nothing: %d of %d nonzeros", len(prunedT), len(fullT))
					}
					// An exact entry is its row's own position at distance 0:
					// another k-mer of the row starts elsewhere.
					pos := map[[2]spmat.Index]int32{}
					for _, tr := range aT {
						pos[[2]spmat.Index{tr.Row, tr.Col}] = tr.Val
					}
					loneExact := func(asT []spmat.Triple[PosDist]) int {
						n := 0
						for _, tr := range asT {
							at, ok := pos[[2]spmat.Index{tr.Row, tr.Col}]
							if ok && counts[tr.Col] == 1 && tr.Val == (PosDist{Pos: at}) {
								n++
							}
						}
						return n
					}
					if lf, lp := loneExact(fullT), loneExact(prunedT); lf == 0 || lp != 0 {
						t.Errorf("exact entries of k-mers one sequence holds: %d in the full AS, %d in the pruned", lf, lp)
					}
					bannedInFull := 0
					for _, tr := range fullT {
						if counts[tr.Col] > maxFreq {
							bannedInFull++
						}
					}
					for _, tr := range prunedT {
						if counts[tr.Col] > maxFreq {
							t.Fatalf("banned k-mer %d (in %d sequences) survives in the pruned AS", tr.Col, counts[tr.Col])
						}
					}
					if m == maxSubs && bannedInFull == 0 {
						t.Error("no banned k-mer is a substitute in the full AS: the ban check bites nothing")
					}
					crossing := false
					for _, tr := range prunedT {
						crossing = crossing || tr.Col == spmat.Index(nearest) && tr.Val.Dist > 0
					}
					if !crossing {
						t.Error("the root's substitute across the block boundary is missing")
					}
					if dropped := nnzUnchecked - int64(len(prunedT)); (dropped > 0) != (p > 1) {
						t.Errorf("the owner's filter dropped %d absent arrivals at p=%d", dropped, p)
					}

					offDiagonal := func(bT []spmat.Triple[Overlap]) []spmat.Triple[Overlap] {
						return slices.DeleteFunc(bT, func(tr spmat.Triple[Overlap]) bool { return tr.Row == tr.Col })
					}
					if bPrunedT, bFullT = offDiagonal(bPrunedT), offDiagonal(bFullT); len(bPrunedT) == 0 ||
						!reflect.DeepEqual(bPrunedT, bFullT) {
						t.Errorf("B from the pruned AS differs off the diagonal from B from the full AS: %d vs %d nonzeros",
							len(bPrunedT), len(bFullT))
					}
					flops := func(asT []spmat.Triple[PosDist]) int64 {
						as, err := spmat.FromTriples(spmat.Index(n), space, slices.Clone(asT), nil)
						if err != nil {
							t.Fatal(err)
						}
						atT := make([]spmat.Triple[int32], len(aT))
						for i, tr := range aT {
							atT[i] = spmat.Triple[int32]{Row: tr.Col, Col: tr.Row, Val: tr.Val}
						}
						atW, err := spmat.FromTriples(space, spmat.Index(n), atT, nil)
						if err != nil {
							t.Fatal(err)
						}
						_, st, err := spmat.SpGEMM(as, atW, frameRect.subRows(), spmat.SpGEMMOpts{Threads: 1})
						if err != nil {
							t.Fatal(err)
						}
						return st.Flops
					}
					if pf, ff := flops(prunedT), flops(fullT); pf >= ff || pf == 0 {
						t.Errorf("Flops of (AS)·Aᵀ: %d pruned, %d full", pf, ff)
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
