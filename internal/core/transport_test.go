package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/mpi"
	"repro/internal/testutil"
)

// TestTransportBackendsEquivalent is the pipeline-level differential test
// for the transport layer: with Transport "shared" (the zero-copy default),
// "codec" (full byte serialization) and "tcp" (one cluster per rank over
// real loopback sockets — the multi-process stack minus fork/exec), the PSG
// edges, the Stats, and the run's Summary — makespan, section times, wire
// and peak bytes — must be bit-identical across thread counts, wave counts
// and cluster sizes. The shared path charges the analytically computed size of
// the encoding it skips, and the tcp relay reconstructs the simulator's
// rendezvous state, so neither the clocks nor the graphs can drift apart
// without this test failing. The other two drivers are held to the same
// standard: BuildIndex must write byte-identical rank files on every
// backend, and a query batch served from them must return the same hits,
// Stats and Summary.
func TestTransportBackendsEquivalent(t *testing.T) {
	defer testutil.Watchdog(t, 8*time.Minute)()
	data := familyDataset(t, 5, 53)
	queries := everyThird(data.Records)
	for _, subs := range []int{0, 5} {
		for _, variant := range []struct{ p, blocks, threads int }{
			{1, 1, 1}, {4, 1, 1}, {4, 4, 1}, {4, 2, 4}, {9, 3, 2},
		} {
			cfg := DefaultConfig()
			cfg.SubstituteKmers = subs
			cfg.CommonKmerThreshold = 1
			cfg.Blocks = variant.blocks
			cfg.Threads = variant.threads

			name := fmt.Sprintf("subs=%d p=%d blocks=%d threads=%d",
				subs, variant.p, variant.blocks, variant.threads)
			cfg.Transport = "shared"
			sharedEdges, sharedStats, sharedSum := runPipeline(t, data.Records, variant.p, cfg)
			if len(sharedEdges) == 0 {
				t.Fatalf("%s: no edges (weak test)", name)
			}
			shared := chaosRun{edges: sharedEdges, stats: sharedStats, sum: sharedSum}

			cfg.Transport = "codec"
			codecEdges, codecStats, codecSum := runPipeline(t, data.Records, variant.p, cfg)
			codec := chaosRun{edges: codecEdges, stats: codecStats, sum: codecSum}
			sameTransportRun(t, name+" codec", codec, shared)

			cfg.Transport = "tcp"
			tcp, err := runChaosPipelineTCP(data.Records, variant.p, cfg)
			if err != nil {
				t.Fatalf("%s tcp: %v", name, err)
			}
			sameTransportRun(t, name+" tcp", tcp, shared)

			var sharedDir string
			var sharedQuery chaosRun
			for _, transport := range []string{"shared", "codec", "tcp"} {
				cfg.Transport = transport
				dir := buildTestIndex(t, data.Records, variant.p, cfg)
				got, err := runChaosQuery(dir, queries, variant.p, cfg, transport == "tcp")
				if err != nil {
					t.Fatalf("%s query %s: %v", name, transport, err)
				}
				if transport == "shared" {
					if len(got.edges) == 0 {
						t.Fatalf("%s: query batch found no hits (weak test)", name)
					}
					sharedDir, sharedQuery = dir, got
					continue
				}
				sameIndexFiles(t, name+" index "+transport, dir, sharedDir, variant.p)
				sameTransportRun(t, name+" query "+transport, got, sharedQuery)
			}
		}
	}
}

// TestSummaryAcrossBackends holds the read-out to the transport contract:
// one all-vs-all run and one query batch report the same Summary — every
// section, byte and peak — through Cluster.Summary on shared and codec, and
// through Comm.Summarize both in process and over loopback tcp.
func TestSummaryAcrossBackends(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	data := familyDataset(t, 4, 61)
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 5
	cfg.Blocks = 2
	dir := buildTestIndex(t, data.Records, 4, cfg)
	queries := everyThird(data.Records)
	ref := map[string]mpi.Summary{}
	for _, transport := range []string{"shared", "codec", "tcp"} {
		cfg.Transport = transport
		for name, body := range map[string]rankBody{
			"all-vs-all": pipelineBody(data.Records, 4, cfg),
			"query":      queryBody(dir, queries, 4, cfg),
		} {
			got, err := runChaos(4, nil, body, transport == "tcp")
			if err != nil {
				t.Fatalf("%s %s: %v", name, transport, err)
			}
			reads := map[string]mpi.Summary{transport: got.sum}
			if transport != "tcp" {
				reads[transport+" Summarize"], _, err = mpi.RunLocal(context.Background(), 4, mpi.DefaultCostModel(), nil,
					func(c *mpi.Comm) (mpi.Summary, error) {
						res, err := body(c)
						if err == nil {
							_, err = GatherEdges(c, res.Edges)
						}
						if err != nil {
							return mpi.Summary{}, err
						}
						return c.Summarize()
					})
				if err != nil {
					t.Fatalf("%s %s Summarize: %v", name, transport, err)
				}
			}
			if transport == "shared" {
				ref[name] = got.sum
				if len(got.sum.SectionMax) == 0 || got.sum.Time <= 0 || got.sum.BytesOnWire <= 0 {
					t.Fatalf("%s: empty summary %+v (weak test)", name, got.sum)
				}
			}
			for read, s := range reads {
				if !reflect.DeepEqual(s, ref[name]) {
					t.Errorf("%s, %s: summary\n  %+v\nwant shared's\n  %+v", name, read, s, ref[name])
				}
			}
		}
	}
}

// sameIndexFiles asserts two index directories hold byte-identical rank
// artifacts.
func sameIndexFiles(t *testing.T, name, gotDir, wantDir string, p int) {
	t.Helper()
	for rank := 0; rank < p; rank++ {
		got, err := os.ReadFile(index.Path(gotDir, rank))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := os.ReadFile(index.Path(wantDir, rank))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rank %d artifact differs from the shared-transport build (%d vs %d bytes)",
				name, rank, len(got), len(want))
		}
	}
}

// sameTransportRun asserts one backend's run equals the shared-transport
// reference bit for bit: edges, stats, and the whole Summary.
func sameTransportRun(t *testing.T, name string, got, want chaosRun) {
	t.Helper()
	if !statsEqual(got.stats, want.stats) {
		t.Fatalf("%s: stats differ: %+v vs %+v", name, got.stats, want.stats)
	}
	if len(got.edges) != len(want.edges) {
		t.Fatalf("%s: %d edges vs reference %d", name, len(got.edges), len(want.edges))
	}
	for i := range want.edges {
		if got.edges[i] != want.edges[i] {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", name, i, got.edges[i], want.edges[i])
		}
	}
	if !reflect.DeepEqual(got.sum, want.sum) {
		t.Errorf("%s: summary\n  %+v\nwant\n  %+v", name, got.sum, want.sum)
	}
}

func TestTransportValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = "grpc"
	if err := validate(cfg); err == nil {
		t.Fatal("unknown transport accepted")
	}
	for _, ok := range []string{"", "shared", "codec", "tcp"} {
		cfg.Transport = ok
		if err := validate(cfg); err != nil {
			t.Fatalf("transport %q rejected: %v", ok, err)
		}
	}
}
