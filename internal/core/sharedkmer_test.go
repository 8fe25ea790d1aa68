package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fasta"
	"repro/internal/spmat"
	"repro/internal/synth"
)

// buildExactTwin is buildTarget's exact all-vs-all path as it was while A
// kept every k-mer, kept verbatim: A formed, the frequency pre-filter's
// census and its copying prune (a binary search per nonzero) only when
// Config.MaxKmerFrequency is set, then Aᵀ.
func buildExactTwin(r *run, owned []fasta.Record) (*target, error) {
	clock, cfg := r.clock, r.cfg
	store, err := stageInput(r.grid, owned, true, cfg)
	if err != nil {
		return nil, err
	}
	t := &target{store: store}
	t.stats.NumSeqs = int64(store.Total)

	clock.StartSection(SectionFormA)
	t.a, _, err = formA(r.grid, store, cfg, r.kmerSpace, false, &t.stats)
	clock.EndSection()
	if err != nil {
		return nil, err
	}
	if t.stats.NNZA, err = t.a.TryNNZ(); err != nil {
		return nil, err
	}

	t.stats.NNZAFiltered = t.stats.NNZA
	if cfg.MaxKmerFrequency > 0 {
		clock.Section(SectionFormA, func() {
			var cols []spmat.Index
			var counts []int64
			if cols, counts, err = t.a.ColumnCounts(); err != nil {
				return
			}
			for i, c := range cols {
				if counts[i] > int64(cfg.MaxKmerFrequency) {
					t.banned = append(t.banned, c)
				}
			}
			filtered := t.a.Prune(func(_, c spmat.Index, _ int32) bool {
				_, banned := slices.BinarySearch(t.banned, c)
				return !banned
			})
			t.a.Release()
			t.a = filtered
		})
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
	return t, nil
}

// randomProteins returns n random sequences of lengths [minLen, maxLen]
// over the 20 standard residues.
func randomProteins(rng *rand.Rand, prefix string, n, minLen, maxLen int) []fasta.Record {
	const residues = "ACDEFGHIKLMNPQRSTVWY"
	recs := make([]fasta.Record, n)
	for i := range recs {
		seq := make([]byte, minLen+rng.Intn(maxLen-minLen+1))
		for j := range seq {
			seq[j] = residues[rng.Intn(len(residues))]
		}
		recs[i] = fasta.Record{ID: fmt.Sprintf("%s%d", prefix, i), Seq: seq}
	}
	return recs
}

// TestSharedKmerPruneMatchesTwin holds the exact all-vs-all A, which keeps
// only the k-mers two sequences share, to the build that kept every k-mer:
// the same graph and the same Stats at every rank count, wave count, row
// bound, frequency limit, thread count and block transport. The graph alone
// cannot tell a prune that keeps singletons from none, so the pruned A's
// census is asserted directly: every column it keeps holds at least two
// sequences and at most the frequency limit, and what it drops is exactly
// the one-sequence k-mers (NNZAFiltered less the pruned nonzeros is zero
// where every k-mer is shared).
func TestSharedKmerPruneMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	cfg0 := DefaultConfig()
	sweepAll := func(o *operands) panelSource { return o }

	// Duplicate records: every k-mer is held twice or more (a family's
	// shared ones more than the frequency limit), so the prune drops nothing.
	family, err := synth.Generate(synth.Config{
		Seed: 40, NumFamilies: 1, MembersMean: 4, MinLen: 40, MaxLen: 70, Divergence: 0.1, IndelRate: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var dups []fasta.Record
	for i, rec := range family.Records {
		dups = append(dups, rec, fasta.Record{ID: fmt.Sprintf("dup%d", i), Seq: rec.Seq})
	}
	// Length-k sequences: one k-mer each, a few of them repeated.
	lenK := randomProteins(rng, "k", 12, cfg0.K, cfg0.K)
	lenK = append(lenK, fasta.Record{ID: "k-rep0", Seq: lenK[0].Seq}, fasta.Record{ID: "k-rep1", Seq: lenK[0].Seq},
		fasta.Record{ID: "k-rep2", Seq: lenK[5].Seq})
	// Fewer sequences than the largest rank count: two related, three not.
	few := randomProteins(rng, "few", 4, 30, 50)
	few = append(few, fasta.Record{ID: "few-dup", Seq: append(slices.Clone(few[0].Seq[5:]), "MKV"...)})

	inputs := []struct {
		name string
		recs []fasta.Record
		// shared: every k-mer is held by two or more sequences.
		shared bool
	}{
		{"unrelated", randomProteins(rng, "u", 24, 30, 60), false},
		{"families", familyDataset(t, 2, 41).Records, false},
		{"duplicates", dups, true},
		{"length-k", lenK, false},
		{"fewer-than-ranks", few, false},
	}
	for _, in := range inputs {
		for _, p := range []int{1, 4, 9, 16} {
			for _, transport := range []string{"shared", "codec"} {
				for _, maxFreq := range []int{0, 3} {
					for _, naive := range []bool{false, true} {
						for _, blocks := range []int{1, 4} {
							for _, threads := range []int{1, 2} {
								cfg := cfg0
								cfg.Transport, cfg.MaxKmerFrequency, cfg.NaiveTriangle = transport, maxFreq, naive
								cfg.Blocks, cfg.Threads = blocks, threads
								name := fmt.Sprintf("%s: p=%d %s maxfreq=%d naive=%v blocks=%d threads=%d",
									in.name, p, transport, maxFreq, naive, blocks, threads)
								var pruned int64
								got := runSweep(t, in.recs, p, cfg, func(r *run, owned []fasta.Record) (*target, error) {
									tg, err := buildTarget(r, owned, false)
									if err != nil {
										return nil, err
									}
									cols, counts, err := tg.a.ColumnCounts()
									if err != nil {
										return nil, err
									}
									for i, n := range counts {
										if n < 2 || (maxFreq > 0 && n > int64(maxFreq)) {
											return nil, fmt.Errorf("pruned A keeps k-mer %d held by %d sequences", cols[i], n)
										}
									}
									nnz, err := tg.a.TryNNZ()
									if r.comm.Rank() == 0 {
										pruned = nnz
									}
									return tg, err
								}, sweepAll)
								want := runSweep(t, in.recs, p, cfg, buildExactTwin, sweepAll)
								if !reflect.DeepEqual(got.edges, want.edges) {
									t.Fatalf("%s: %d edges, the twin %d", name, len(got.edges), len(want.edges))
								}
								if !statsEqual(got.stats, want.stats) {
									t.Fatalf("%s: stats %+v, the twin %+v", name, got.stats, want.stats)
								}
								if dropped := got.stats.NNZAFiltered - pruned; (dropped == 0) != in.shared {
									t.Fatalf("%s: the prune dropped %d of %d nonzeros", name, dropped, got.stats.NNZAFiltered)
								}
							}
						}
					}
				}
			}
		}
	}
}
