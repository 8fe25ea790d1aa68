package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// buildColumnCensusTwin is buildTarget's exact all-vs-all path as it was
// while the census followed the shuffle, kept verbatim: A formed with every
// k-mer, the grid column's census (one ColComm allgather and a q-way merge,
// dmat.ColumnCounts), the one-sequence and frequency-banned columns dropped
// in place (restrict), the banned total reported by one rank per grid
// column, then Aᵀ.
func buildColumnCensusTwin(r *run, owned []fasta.Record) (*target, error) {
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
	var bannedNNZ int64
	clock.Section(SectionFormA, func() {
		var cols []spmat.Index
		var counts []int64
		if cols, counts, err = t.a.ColumnCounts(); err != nil {
			return
		}
		var kept []spmat.Index
		for i, c := range cols {
			switch n := counts[i]; {
			case cfg.MaxKmerFrequency > 0 && n > int64(cfg.MaxKmerFrequency):
				t.banned = append(t.banned, c)
				bannedNNZ += n
			case n >= 2:
				kept = append(kept, c)
			}
		}
		restrict(t.a, kept)
	})
	if err != nil {
		return nil, err
	}
	if cfg.MaxKmerFrequency > 0 {
		var banned int64
		if r.grid.MyRow == 0 {
			banned = bannedNNZ
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
	return t, nil
}

// TestOwnerCensusMatchesColumnCensus holds the exact all-vs-all A, pruned
// by the owner census before its shuffle, to the build that took the grid
// column's census after assembly and pruned in place: every rank's blocks
// of A and Aᵀ bit for bit, the build's counters (NNZA, NNZAFiltered,
// KmersTotal) and the whole run's graph and Stats, at every rank count and
// frequency limit, on both block transports. The inputs put k-mers where a
// census can miscount them: repeated within one sequence, in sequences of
// exactly k residues and in ones too short to hold any, in duplicate
// records, and on more ranks than there are sequences.
func TestOwnerCensusMatchesColumnCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	k := DefaultConfig().K
	// A repeat unit shorter than a sequence makes each of its k-mers occur
	// several times in that sequence; a second copy of the unit elsewhere
	// shares them once.
	var repeats []fasta.Record
	for i, unit := range randomProteins(rng, "unit", 4, k+2, k+5) {
		seq := []byte(strings.Repeat(string(unit.Seq), 4))
		repeats = append(repeats, fasta.Record{ID: fmt.Sprintf("rep%d", i), Seq: seq})
		if i%2 == 0 {
			repeats = append(repeats, fasta.Record{ID: fmt.Sprintf("rep%d-once", i), Seq: append([]byte("MW"), unit.Seq...)})
		}
	}
	repeats = append(repeats, randomProteins(rng, "rep-noise", 6, 20, 40)...)
	// Sequences of length k, some repeated, and ones shorter than k.
	short := randomProteins(rng, "k", 8, k, k)
	short = append(short, fasta.Record{ID: "k-dup0", Seq: short[0].Seq}, fasta.Record{ID: "k-dup1", Seq: short[0].Seq},
		fasta.Record{ID: "k-dup3", Seq: short[3].Seq})
	short = append(short, randomProteins(rng, "short", 4, 1, k-1)...)
	// Duplicate records of a family: every k-mer is shared, the family's
	// common ones by more sequences than the frequency limits.
	var dups []fasta.Record
	for i, rec := range familyDataset(t, 1, 42).Records[:6] {
		dups = append(dups, rec, fasta.Record{ID: fmt.Sprintf("dup%d", i), Seq: rec.Seq})
	}
	few := randomProteins(rng, "few", 3, 30, 50)
	few = append(few, fasta.Record{ID: "few-dup", Seq: few[1].Seq})

	inputs := []struct {
		name string
		recs []fasta.Record
	}{{"repeats", repeats}, {"short", short}, {"duplicates", dups}, {"fewer-than-ranks", few}}
	sweepAll := func(o *operands) panelSource { return o }
	for _, in := range inputs {
		for _, p := range []int{1, 4, 9, 16} {
			for _, maxFreq := range []int{0, 2, 3} {
				for _, transport := range []string{"shared", "codec"} {
					cfg := DefaultConfig()
					cfg.MaxKmerFrequency, cfg.Transport = maxFreq, transport
					name := fmt.Sprintf("%s: p=%d maxfreq=%d %s", in.name, p, maxFreq, transport)
					cl := mpi.NewCluster(p, mpi.DefaultCostModel())
					err := cl.Run(func(c *mpi.Comm) error {
						r, err := openRun(c, cfg)
						if err != nil {
							return err
						}
						defer r.close()
						n := len(in.recs)
						owned := in.recs[n*c.Rank()/p : n*(c.Rank()+1)/p]
						got, err := buildTarget(r, owned, false)
						if err != nil {
							return err
						}
						want, err := buildColumnCensusTwin(r, owned)
						if err != nil {
							return err
						}
						switch {
						case !reflect.DeepEqual(got.a.Local, want.a.Local):
							return fmt.Errorf("rank %d: A's block differs from the twin's", c.Rank())
						case !reflect.DeepEqual(got.at.Local, want.at.Local):
							return fmt.Errorf("rank %d: Aᵀ's block differs from the twin's", c.Rank())
						case !statsEqual(got.stats, want.stats):
							return fmt.Errorf("rank %d: build stats %+v, the twin %+v", c.Rank(), got.stats, want.stats)
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					gotRun := runSweep(t, in.recs, p, cfg, allVsAllTarget, sweepAll)
					wantRun := runSweep(t, in.recs, p, cfg, buildColumnCensusTwin, sweepAll)
					if !reflect.DeepEqual(gotRun.edges, wantRun.edges) || !statsEqual(gotRun.stats, wantRun.stats) {
						t.Fatalf("%s: %d edges, stats %+v; the twin %d edges, stats %+v",
							name, len(gotRun.edges), gotRun.stats, len(wantRun.edges), wantRun.stats)
					}
				}
			}
		}
	}
}
