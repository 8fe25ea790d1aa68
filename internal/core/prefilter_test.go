package core

import (
	"testing"

	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/spmat"
)

// prefilterA is the frequency pre-filter as an index build runs it: the
// census of A's grid column, then the banned k-mers' columns dropped from A
// in place. It returns A and the banned list.
func prefilterA(a *dmat.Mat[int32], cfg Config) (*dmat.Mat[int32], []spmat.Index, error) {
	kmers, err := countKmers(a, cfg.MaxKmerFrequency)
	if err != nil {
		return nil, nil, err
	}
	restrict(a, kmers.kept)
	return a, kmers.banned, nil
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
