package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/spmat"
)

// prefilterA is the frequency pre-filter as an index build runs it: the
// census of A's grid column, then the banned k-mers' columns dropped from A
// in place. It returns A and the banned list.
func prefilterA(a *dmat.Mat[int32], cfg Config) (*dmat.Mat[int32], []spmat.Index, error) {
	census, err := countKmers(a, cfg.MaxKmerFrequency)
	if err != nil {
		return nil, nil, err
	}
	restrict(a, census.banned)
	return a, census.banned, nil
}

// The k-mer frequency pre-filter (paper future work) must drop
// over-represented k-mers, reduce candidate pairs, and stay process-count
// oblivious.
func TestKmerFrequencyPrefilter(t *testing.T) {
	// Build a dataset where one low-complexity k-mer is shared by every
	// sequence (a poly-A tract) while genuine family signal is distinct.
	data := familyDataset(t, 5, 43)
	for i := range data.Records {
		data.Records[i].Seq = append(data.Records[i].Seq, []byte("AAAAAAAAAA")...)
	}

	base := DefaultConfig()
	_, statsAll, _ := runPipeline(t, data.Records, 4, base)

	filt := base
	filt.MaxKmerFrequency = 10
	edges, statsFilt, _ := runPipeline(t, data.Records, 4, filt)

	if statsFilt.NNZAFiltered >= statsFilt.NNZA {
		t.Errorf("filter removed nothing: %d of %d nnz",
			statsFilt.NNZAFiltered, statsFilt.NNZA)
	}
	if statsFilt.PairsAligned >= statsAll.PairsAligned {
		t.Errorf("filter should cut candidate pairs: %d vs %d",
			statsFilt.PairsAligned, statsAll.PairsAligned)
	}
	if len(edges) == 0 {
		t.Error("filtered pipeline found no edges at all")
	}

	// Process obliviousness holds with the filter on.
	ref, _, _ := runPipeline(t, data.Records, 1, filt)
	if len(ref) != len(edges) {
		t.Fatalf("filter broke obliviousness: %d vs %d edges", len(ref), len(edges))
	}
	for i := range ref {
		if ref[i] != edges[i] {
			t.Fatalf("filter broke obliviousness at edge %d", i)
		}
	}
}

func TestKmerFrequencyPrefilterValidation(t *testing.T) {
	data := familyDataset(t, 2, 44)
	cfg := DefaultConfig()
	cfg.MaxKmerFrequency = -1
	_ = data
	if err := validate(cfg); err == nil {
		t.Error("negative frequency limit should be rejected")
	}
}

// The poly-A tract itself must not seed edges between unrelated sequences
// once filtered: noise-noise edges should not increase versus the
// unpolluted dataset.
func TestPrefilterRemovesLowComplexityEdges(t *testing.T) {
	data := familyDataset(t, 5, 45)
	polluted := make([]fasta.Record, len(data.Records))
	for i, r := range data.Records {
		polluted[i] = fasta.Record{ID: r.ID, Seq: append(append([]byte{}, r.Seq...),
			[]byte("AAAAAAAAAAAAAAA")...)}
	}
	cfg := DefaultConfig()
	cfg.MinIdentity = 0
	cfg.MinCoverage = 0
	noisy, _, _ := runPipeline(t, polluted, 4, cfg)

	cfg.MaxKmerFrequency = 8
	clean, _, _ := runPipeline(t, polluted, 4, cfg)

	interNoisy, interClean := 0, 0
	for _, e := range noisy {
		if data.Families[e.R] != data.Families[e.C] || data.Families[e.R] < 0 {
			interNoisy++
		}
	}
	for _, e := range clean {
		if data.Families[e.R] != data.Families[e.C] || data.Families[e.R] < 0 {
			interClean++
		}
	}
	if interClean > interNoisy {
		t.Errorf("filter increased cross-family edges: %d vs %d", interClean, interNoisy)
	}
}

// frozenPrefilter is a query batch's frequency prune as it was while Q was
// copied rather than dropped in place, kept verbatim at block level: a copy
// of Q's block keeping the nonzeros whose k-mer a binary search does not
// find in banned, charged as the elementwise pass, the copy put on the
// ledger before the original left it.
func frozenPrefilter(q *dmat.Mat[int32], banned []spmat.Index) {
	clock, colOff, before := q.Grid.Comm.Clock(), q.ColOffset(), q.LocalBytes()
	filtered := q.Local.Prune(func(_, c spmat.Index, _ int32) bool {
		_, b := slices.BinarySearch(banned, c+colOff)
		return !b
	})
	clock.ParOps(float64(q.Local.NNZ()) * dmat.VisitOps)
	clock.AllocBytes(filtered.Bytes())
	clock.FreeBytes(before)
	q.Local = filtered
}

// TestQueryDropMatchesPrefilterTwin holds a query batch's frequency prune —
// restrict over the index's banned list, as Query runs it — to
// frozenPrefilter, block by block, at p ∈ {1, 4, 9}: the same nonzeros and
// the same charged time, while the ledger's peak during the drop does not
// rise (the twin's copy lived beside the block it replaced). The database
// and the batch share a poly-A tract, so the batch holds banned k-mers.
func TestQueryDropMatchesPrefilterTwin(t *testing.T) {
	data := familyDataset(t, 5, 46)
	recs := make([]fasta.Record, len(data.Records))
	for i, r := range data.Records {
		recs[i] = fasta.Record{ID: r.ID, Seq: append(slices.Clone(r.Seq), "AAAAAAAAAA"...)}
	}
	var queries []fasta.Record
	for i := 0; i < len(recs); i += 3 {
		queries = append(queries, recs[i])
	}
	cfg := DefaultConfig()
	cfg.MaxKmerFrequency = 4
	for _, p := range []int{1, 4, 9} {
		var dropped atomic.Int64
		err := mpi.NewCluster(p, mpi.DefaultCostModel()).Run(func(c *mpi.Comm) error {
			r, err := openRun(c, cfg)
			if err != nil {
				return err
			}
			defer r.close()
			n, nq := len(recs), len(queries)
			tg, err := buildTarget(r, recs[n*c.Rank()/p:n*(c.Rank()+1)/p], true)
			if err != nil {
				return err
			}
			if err := tg.store.Wait(); err != nil {
				return err
			}
			qstore, err := stageInput(r.grid, queries[nq*c.Rank()/p:nq*(c.Rank()+1)/p], false, cfg)
			if err != nil {
				return err
			}
			if err := qstore.Wait(); err != nil {
				return err
			}
			var stats Stats
			got, err := formA(r.grid, qstore, cfg, r.kmerSpace, false, &stats)
			if err != nil {
				return err
			}
			want, err := formA(r.grid, qstore, cfg, r.kmerSpace, false, &stats)
			if err != nil {
				return err
			}
			clock := r.clock
			drop := func(f func()) (rise int64, took float64) {
				clock.PeakSinceMark()
				live, t0 := clock.LiveBytes(), clock.Now()
				f()
				return clock.PeakSinceMark() - live, clock.Now() - t0
			}
			nnz := got.Local.NNZ()
			wantRise, wantTook := drop(func() { frozenPrefilter(want, tg.banned) })
			gotRise, gotTook := drop(func() { restrict(got, tg.banned) })
			dropped.Add(int64(nnz - got.Local.NNZ()))
			g, w := got.Local, want.Local
			switch {
			case g.NumRows != w.NumRows || g.NumCols != w.NumCols || !slices.Equal(g.JC, w.JC) ||
				!slices.Equal(g.CP, w.CP) || !slices.Equal(g.IR, w.IR) || !slices.Equal(g.Vals, w.Vals):
				return fmt.Errorf("rank %d: Q's block differs from the twin's", c.Rank())
			case gotTook != wantTook:
				return fmt.Errorf("rank %d: the drop took %g s, the twin %g s", c.Rank(), gotTook, wantTook)
			case gotRise > wantRise || gotRise > 0:
				return fmt.Errorf("rank %d: the drop raised the peak by %d bytes, the twin by %d", c.Rank(), gotRise, wantRise)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if dropped.Load() == 0 {
			t.Fatalf("p=%d: the batch held no banned k-mer", p)
		}
	}
}
