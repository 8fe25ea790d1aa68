package pastis

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestBuildGraphQuickstart(t *testing.T) {
	data, err := GenerateScopeLike(6, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildGraph(data.Records, 9, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) == 0 {
		t.Fatal("no edges")
	}
	if res.Time <= 0 {
		t.Errorf("virtual time %g", res.Time)
	}
	if res.Stats.NumSeqs != int64(len(data.Records)) {
		t.Errorf("NumSeqs = %d", res.Stats.NumSeqs)
	}
	if res.BytesOnWire <= 0 {
		t.Errorf("BytesOnWire = %d", res.BytesOnWire)
	}
	for _, name := range []string{"fasta", "form A", "tr. A", "(AS)AT", "wait", "align"} {
		if _, ok := res.Sections[name]; !ok {
			t.Errorf("missing section %q", name)
		}
	}
	// Edges sorted and normalized.
	for i, e := range res.Edges {
		if e.R >= e.C {
			t.Fatalf("edge %d not normalized", i)
		}
		if i > 0 {
			prev := res.Edges[i-1]
			if e.R < prev.R || (e.R == prev.R && e.C <= prev.C) {
				t.Fatalf("edges not sorted at %d", i)
			}
		}
	}
}

// The public API must uphold the paper's reproducibility property.
func TestBuildGraphProcessObliviousness(t *testing.T) {
	data, err := GenerateScopeLike(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 10
	ref, err := BuildGraph(data.Records, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{4, 16, 25} {
		res, err := BuildGraph(data.Records, nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Edges) != len(ref.Edges) {
			t.Fatalf("nodes=%d: %d edges vs %d", nodes, len(res.Edges), len(ref.Edges))
		}
		for i := range ref.Edges {
			if res.Edges[i] != ref.Edges[i] {
				t.Fatalf("nodes=%d: edge %d differs", nodes, i)
			}
		}
	}
}

func TestBuildGraphErrors(t *testing.T) {
	if _, err := BuildGraph(nil, 4, DefaultConfig()); err == nil {
		t.Error("empty input should fail")
	}
	data, err := GenerateScopeLike(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildGraph(data.Records, 3, DefaultConfig()); err == nil {
		t.Error("non-square node count should fail")
	}
}

func TestBaselinesRun(t *testing.T) {
	data, err := GenerateScopeLike(4, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunMMseqs2Like(data.Records, 4, DefaultMMseqs2Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Edges) == 0 || m.Time <= 0 {
		t.Errorf("mmseqs baseline: %d edges, %g s", len(m.Edges), m.Time)
	}
	l, err := RunLASTLike(data.Records, DefaultLASTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Edges) == 0 || l.Time <= 0 {
		t.Errorf("last baseline: %d edges, %g s", len(l.Edges), l.Time)
	}
	if l.Nodes != 1 {
		t.Errorf("LAST must be single-node, got %d", l.Nodes)
	}
}

func TestClusteringHelpers(t *testing.T) {
	data, err := GenerateScopeLike(5, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Exact matching under-recalls on remote homologs (the paper's central
	// motivation); use substitute k-mers for a meaningful recall bound.
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 25
	res, err := BuildGraph(data.Records, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(data.Records)
	clusters, err := ClusterMCL(n, res.Edges)
	if err != nil {
		t.Fatal(err)
	}
	p, r := PrecisionRecall(clusters, data.Families)
	if p < 0.5 {
		t.Errorf("MCL precision %f suspiciously low", p)
	}
	if r < 0.3 {
		t.Errorf("MCL recall %f suspiciously low", r)
	}
	comps := ConnectedComponents(n, res.Edges)
	pc, rc := PrecisionRecall(comps, data.Families)
	if pc <= 0 || rc <= 0 {
		t.Errorf("components scored %f/%f", pc, rc)
	}
}

func TestFASTAHelpers(t *testing.T) {
	data, err := GenerateScopeLike(2, 17)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, data.Records, 60); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFASTA(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(data.Records) {
		t.Fatalf("round trip %d vs %d records", len(back), len(data.Records))
	}
	for i := range back {
		if back[i].ID != data.Records[i].ID ||
			!bytes.Equal(back[i].Seq, data.Records[i].Seq) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// Context cancellation must interrupt the cluster: every rank unblocks and
// BuildGraphContext returns an error wrapping ErrInterrupted (the SIGINT
// path of cmd/pastis).
func TestBuildGraphContextInterrupt(t *testing.T) {
	data, err := GenerateScopeLike(4, 21)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run must abort at its first collective
	_, err = BuildGraphContext(ctx, data.Records, 4, DefaultConfig(), DefaultCostModel())
	if err == nil {
		t.Fatal("cancelled context did not interrupt the run")
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error %v does not wrap ErrInterrupted", err)
	}
}

// The public fault-injection surface: a chaos plan in Config must leave the
// graph and the fault-free communication bill untouched, with recovery
// traffic reported separately in Result.RetryBytes.
func TestBuildGraphWithFaults(t *testing.T) {
	data, err := GenerateScopeLike(4, 23)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	clean, err := BuildGraph(data.Records, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &FaultPlan{Seed: 17, DropProb: 0.1, CorruptProb: 0.05, DelayProb: 0.1}
	faulty, err := BuildGraph(data.Records, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty.Edges) != len(clean.Edges) {
		t.Fatalf("faults changed the graph: %d vs %d edges", len(faulty.Edges), len(clean.Edges))
	}
	for i := range clean.Edges {
		if faulty.Edges[i] != clean.Edges[i] {
			t.Fatalf("edge %d differs under faults", i)
		}
	}
	if faulty.RetryBytes <= 0 {
		t.Error("no retry traffic recorded despite an active fault plan")
	}
	if got := faulty.BytesOnWire - faulty.RetryBytes; got != clean.BytesOnWire {
		t.Errorf("BytesOnWire-RetryBytes = %d, want clean %d (retry %d)",
			got, clean.BytesOnWire, faulty.RetryBytes)
	}
}
