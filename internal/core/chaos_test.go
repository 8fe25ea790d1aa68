package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// chaosRun is the read-out of one execution — the pipeline or a query batch
// — with the config's fault plan actually armed on the cluster.
type chaosRun struct {
	edges  []Edge
	stats  Stats
	blocks int         // Result.EffectiveBlocks on rank 0
	sum    mpi.Summary // the run's ledger
}

// rankBody is one rank's share of a run under test: the all-vs-all pipeline
// or one query batch. runChaos wraps it with the cluster set-up, the edge
// gather and the read-out.
type rankBody func(c *mpi.Comm) (*Result, error)

// pipelineBody runs the all-vs-all pipeline on the rank's slice of recs.
func pipelineBody(recs []fasta.Record, p int, cfg Config) rankBody {
	return func(c *mpi.Comm) (*Result, error) {
		n := len(recs)
		lo, hi := n*c.Rank()/p, n*(c.Rank()+1)/p
		return Run(c, recs[lo:hi], cfg)
	}
}

// queryBody cold-loads the rank's artifact from dir and serves the rank's
// slice of the batch.
func queryBody(dir string, queries []fasta.Record, p int, cfg Config) rankBody {
	return func(c *mpi.Comm) (*Result, error) {
		rd, err := LoadRankData(dir, c.Rank(), p, cfg)
		if err != nil {
			return nil, err
		}
		n := len(queries)
		lo, hi := n*c.Rank()/p, n*(c.Rank()+1)/p
		return Query(c, rd, queries[lo:hi], cfg, rd.Bytes)
	}
}

func runChaosPipeline(recs []fasta.Record, p int, cfg Config) (chaosRun, error) {
	return runChaos(p, cfg.Faults, pipelineBody(recs, p, cfg), false)
}

func runChaosPipelineTCP(recs []fasta.Record, p int, cfg Config) (chaosRun, error) {
	return runChaos(p, cfg.Faults, pipelineBody(recs, p, cfg), true)
}

// runChaosQuery serves one batch from the index in dir on the in-process
// (tcp false) or loopback-tcp cluster, with cfg's fault plan armed.
func runChaosQuery(dir string, queries []fasta.Record, p int, cfg Config, tcp bool) (chaosRun, error) {
	return runChaos(p, cfg.Faults, queryBody(dir, queries, p, cfg), tcp)
}

// runChaos executes body on p ranks with the fault plan actually armed —
// in process (mpi.RunLocal), or with tcp on p tcp-backed single-rank clusters
// over real loopback sockets (mpi.RunTCPLocal) — gathers the graph on rank 0
// and reads the run out through the one fold: Cluster.Summary after an
// in-process run, Comm.Summarize as each tcp rank's last collective. Both
// read the ledger right after the gather, so the two are bit-comparable.
func runChaos(p int, faults *mpi.FaultPlan, body rankBody, tcp bool) (chaosRun, error) {
	rank := func(c *mpi.Comm) (chaosRun, error) {
		res, err := body(c)
		if err != nil {
			return chaosRun{}, err
		}
		all, err := GatherEdges(c, res.Edges)
		if err != nil {
			return chaosRun{}, err
		}
		out := chaosRun{edges: all, stats: res.Stats, blocks: res.EffectiveBlocks}
		if tcp {
			out.sum, err = c.Summarize()
		}
		return out, err
	}
	var out chaosRun
	var err error
	if tcp {
		err = mpi.RunTCPLocal(p, mpi.DefaultCostModel(), func(_ int, cl *mpi.Cluster) {
			if faults != nil {
				cl.ArmFaults(*faults)
			}
		}, func(c *mpi.Comm) error {
			r, err := rank(c)
			if err == nil && c.Rank() == 0 {
				out = r
			}
			return err
		})
	} else {
		var sum mpi.Summary
		out, sum, err = mpi.RunLocal(context.Background(), p, mpi.DefaultCostModel(), faults, rank)
		out.sum = sum
	}
	if err != nil {
		return out, err
	}
	sort.Slice(out.edges, func(i, j int) bool {
		if out.edges[i].R != out.edges[j].R {
			return out.edges[i].R < out.edges[j].R
		}
		return out.edges[i].C < out.edges[j].C
	})
	return out, nil
}

// buildTestIndex persists an index of recs on p ranks into a fresh
// directory, over loopback tcp when cfg.Transport says so.
func buildTestIndex(t testing.TB, recs []fasta.Record, p int, cfg Config) string {
	t.Helper()
	dir := t.TempDir()
	body := func(c *mpi.Comm) error {
		n := len(recs)
		lo, hi := n*c.Rank()/p, n*(c.Rank()+1)/p
		_, err := BuildIndex(c, recs[lo:hi], cfg, dir)
		return err
	}
	var err error
	if cfg.Transport == "tcp" {
		err = mpi.RunTCPLocal(p, mpi.DefaultCostModel(), nil, body)
	} else {
		err = mpi.NewCluster(p, mpi.DefaultCostModel()).Run(body)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// everyThird is the query batch the differential tests serve: database
// members, so every batch has hits.
func everyThird(recs []fasta.Record) []fasta.Record {
	var out []fasta.Record
	for i := 0; i < len(recs); i += 3 {
		out = append(out, recs[i])
	}
	return out
}

// crashLeavingCheckpoints scans injected crash points until one both fails
// the run AND leaves checkpoint files behind (an early crash can die before
// the first wave completes; the simulator is deterministic, so the scan is
// too). Returns the checkpoint directory.
func crashLeavingCheckpoints(t *testing.T, recs []fasta.Record, cfg Config) string {
	t.Helper()
	for _, at := range []int{30, 40, 60, 80, 120, 160, 240} {
		d := t.TempDir()
		crash := cfg
		crash.CheckpointDir = d
		plan := mpi.FaultPlan{Seed: 89, RankCrash: map[int]int{1: at}}
		crash.Faults = &plan
		_, err := runChaosPipeline(recs, 4, crash)
		if err == nil {
			continue // plan never fired: all collectives done before `at`
		}
		if !errors.Is(err, mpi.ErrRankCrashed) {
			t.Fatalf("crash at %d: error %v does not wrap ErrRankCrashed", at, err)
		}
		left, globErr := filepath.Glob(filepath.Join(d, "ckpt-*"))
		if globErr != nil {
			t.Fatal(globErr)
		}
		if len(left) > 0 {
			return d
		}
	}
	t.Fatal("no crash point left a resumable checkpoint set")
	return ""
}

func sameGraph(t *testing.T, name string, got, want chaosRun) {
	t.Helper()
	if len(got.edges) != len(want.edges) {
		t.Errorf("%s: %d edges vs reference %d", name, len(got.edges), len(want.edges))
		return
	}
	for i := range want.edges {
		if got.edges[i] != want.edges[i] {
			t.Errorf("%s: edge %d differs: %+v vs %+v", name, i, got.edges[i], want.edges[i])
			return
		}
	}
	if !statsEqual(got.stats, want.stats) {
		t.Errorf("%s: stats differ:\n  got  %+v\n  want %+v", name, got.stats, want.stats)
	}
}

// TestChaosBitIdentical is the headline robustness guarantee: under any
// recoverable fault schedule — dropped, corrupted and delayed messages, in
// any combination, on either transport backend, at any thread and wave
// count — the pipeline must converge to the exact fault-free similarity
// graph and Stats, with all recovery traffic segregated so that
// BytesOnWire - RetryBytes equals the fault-free communication bill. The
// query sweep — one batch against a persisted index — runs under the same
// matrix and must converge to the fault-free hits the same way.
func TestChaosBitIdentical(t *testing.T) {
	defer testutil.Watchdog(t, 8*time.Minute)()
	data := familyDataset(t, 5, 67)
	indexCfg := DefaultConfig()
	indexCfg.SubstituteKmers = 5
	indexDir := buildTestIndex(t, data.Records, 4, indexCfg)
	queries := everyThird(data.Records)
	plans := []struct {
		name string
		plan mpi.FaultPlan
	}{
		{"mixed", mpi.FaultPlan{Seed: 31, DropProb: 0.05, CorruptProb: 0.03, DelayProb: 0.05}},
	}
	if !testing.Short() {
		plans = append(plans,
			struct {
				name string
				plan mpi.FaultPlan
			}{"drop", mpi.FaultPlan{Seed: 71, DropProb: 0.15}},
			struct {
				name string
				plan mpi.FaultPlan
			}{"corrupt", mpi.FaultPlan{Seed: 73, CorruptProb: 0.1}},
			struct {
				name string
				plan mpi.FaultPlan
			}{"delay", mpi.FaultPlan{Seed: 79, DelayProb: 0.2}},
		)
	}
	var injected, queryInjected, exactInjected int64
	for _, transport := range []string{"shared", "codec", "tcp"} {
		// The tcp rows run on real multi-process-shaped clusters (one per
		// rank, loopback sockets); faults stack on top of the TCP backend.
		runner := runChaosPipeline
		if transport == "tcp" {
			runner = runChaosPipelineTCP
		}
		// Substitute rows at every wave and thread count, with a query batch;
		// one exact all-vs-all row, whose A the owner census prunes before
		// the shuffle, puts that census's collectives under the same faults.
		type row struct{ subs, blocks, threads int }
		var rows []row
		for _, blocks := range []int{1, 3} {
			for _, threads := range []int{1, 4} {
				rows = append(rows, row{5, blocks, threads})
			}
		}
		rows = append(rows, row{0, 3, 1})
		for _, rw := range rows {
			cfg := DefaultConfig()
			cfg.SubstituteKmers = rw.subs
			cfg.Transport = transport
			cfg.Blocks = rw.blocks
			cfg.Threads = rw.threads
			query := rw.subs > 0
			clean, err := runner(data.Records, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var cleanQuery chaosRun
			if query {
				if cleanQuery, err = runChaosQuery(indexDir, queries, 4, cfg, transport == "tcp"); err != nil {
					t.Fatal(err)
				}
				if len(cleanQuery.edges) == 0 {
					t.Fatal("query batch found no hits (weak test)")
				}
			}
			for _, pl := range plans {
				name := fmt.Sprintf("%s transport=%s subs=%d blocks=%d threads=%d",
					pl.name, transport, rw.subs, rw.blocks, rw.threads)
				faulty := cfg
				plan := pl.plan
				faulty.Faults = &plan
				got, err := runner(data.Records, 4, faulty)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameGraph(t, name, got, clean)
				if billed := got.sum.BytesOnWire - got.sum.RetryBytes; billed != clean.sum.BytesOnWire {
					t.Errorf("%s: BytesOnWire-RetryBytes = %d, want clean %d (retry %d)",
						name, billed, clean.sum.BytesOnWire, got.sum.RetryBytes)
				}
				fs := got.sum.Faults
				injected += fs.Drops + fs.Corrupts + fs.Delays + fs.P2PDrops
				if !query {
					exactInjected += fs.Drops + fs.Corrupts + fs.Delays + fs.P2PDrops
					continue
				}

				gotQuery, err := runChaosQuery(indexDir, queries, 4, faulty, transport == "tcp")
				if err != nil {
					t.Fatalf("query %s: %v", name, err)
				}
				sameGraph(t, "query "+name, gotQuery, cleanQuery)
				if billed := gotQuery.sum.BytesOnWire - gotQuery.sum.RetryBytes; billed != cleanQuery.sum.BytesOnWire {
					t.Errorf("query %s: BytesOnWire-RetryBytes = %d, want clean %d (retry %d)",
						name, billed, cleanQuery.sum.BytesOnWire, gotQuery.sum.RetryBytes)
				}
				fs = gotQuery.sum.Faults
				queryInjected += fs.Drops + fs.Corrupts + fs.Delays + fs.P2PDrops
			}
		}
	}
	if injected == 0 || queryInjected == 0 || exactInjected == 0 {
		t.Fatalf("faults injected: %d into the pipeline (%d into its exact rows), %d into the query sweep (weak test)",
			injected, exactInjected, queryInjected)
	}
}

// TestCheckpointResume: a run killed by an injected rank crash must leave a
// resumable per-rank checkpoint set, and the resumed run must reproduce the
// uninterrupted similarity graph bitwise while skipping completed waves.
func TestCheckpointResume(t *testing.T) {
	data := familyDataset(t, 5, 83)
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 5
	cfg.Blocks = 4
	ref, err := runChaosPipeline(data.Records, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := crashLeavingCheckpoints(t, data.Records, cfg)

	resumed := cfg
	resumed.CheckpointDir = dir
	resumed.Resume = true
	got, err := runChaosPipeline(data.Records, 4, resumed)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "resumed", got, ref)
	// A successful run must clear its checkpoints: stale wave files are only
	// meaningful at the split they were written for.
	left, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("successful resume left %d checkpoint files: %v", len(left), left)
	}
}

// Resume with an incompatible config must be refused, not silently blended
// into a wrong graph: the checkpoint fingerprint pins every PSG-relevant
// parameter.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	data := familyDataset(t, 5, 97)
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 5
	cfg.Blocks = 4
	dir := crashLeavingCheckpoints(t, data.Records, cfg)
	// A different k changes the graph: the fingerprint must not match, so the
	// resume falls back to a clean start — and still produce the right
	// answer for the new config.
	other := DefaultConfig()
	other.K = cfg.K + 1
	other.SubstituteKmers = 5
	other.Blocks = 4
	other.CheckpointDir = dir
	other.Resume = true
	got, err := runChaosPipeline(data.Records, 4, other)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runChaosPipeline(data.Records, 4, func() Config {
		c := DefaultConfig()
		c.K = cfg.K + 1
		c.SubstituteKmers = 5
		c.Blocks = 4
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "mismatched-resume", got, ref)
}

// TestMemBudgetDegrades: when a wave sweep exceeds the per-rank memory
// budget the run must not abort — it retries the whole sweep at a doubled
// wave count until it fits, and the degraded run's similarity graph and
// Stats stay bitwise identical. The contract is checked against the ledger
// itself: a budgeted run that succeeds reports a split whose unbudgeted run
// peaks within the budget. A budget the stages before the sweep already
// exceed fails with ErrMemBudget before any SUMMA stage, since no split can
// shrink them. Both callers of the sweep are held to it, in exact and
// substitute mode: the all-vs-all pipeline and a query batch.
func TestMemBudgetDegrades(t *testing.T) {
	// Large families so the candidate matrix B dominates a query batch's
	// memory in exact mode. In substitute mode the expansion's triple buffer,
	// built before the sweep, is the peak; the exact all-vs-all A is formed
	// with only the k-mers two sequences share, so there the sweep sets it.
	// The query batch is the whole database for the same reason.
	data := wavyDataset(t)
	base := func(subs int) Config {
		cfg := DefaultConfig()
		cfg.CommonKmerThreshold = 1
		cfg.Blocks = 1
		cfg.SubstituteKmers = subs
		return cfg
	}
	indexDirs := map[int]string{}
	for _, subs := range []int{0, 10} {
		indexDirs[subs] = buildTestIndex(t, data.Records, 4, base(subs))
	}
	for _, sw := range []struct {
		name string
		run  func(cfg Config) (chaosRun, error)
		// formed reports whether the stages before the sweep set the peak.
		formed func(subs int) bool
	}{
		{"all-vs-all", func(cfg Config) (chaosRun, error) { return runChaosPipeline(data.Records, 4, cfg) },
			func(subs int) bool { return subs > 0 }},
		{"query", func(cfg Config) (chaosRun, error) {
			return runChaosQuery(indexDirs[cfg.SubstituteKmers], data.Records, 4, cfg, false)
		}, func(subs int) bool { return subs > 0 }},
	} {
		t.Run(sw.name, func(t *testing.T) {
			for _, subs := range []int{0, 10} {
				t.Run(fmt.Sprintf("subs%d", subs), func(t *testing.T) {
					checkMemBudget(t, sw.run, base(subs), sw.formed(subs))
				})
			}
		})
	}
	// Exact all-vs-all on the one-family input, where B dominates the whole
	// run: a budget below its peak must degrade. Its 42,000 candidate pairs
	// go unaligned.
	t.Run("one-family", func(t *testing.T) {
		one := oneFamilyDataset(t).Records
		cfg := base(0)
		cfg.Align = AlignNone
		checkMemBudget(t, func(cfg Config) (chaosRun, error) { return runChaosPipeline(one, 4, cfg) }, cfg, false)
	})
}

// checkMemBudget runs TestMemBudgetDegrades' contract on one sweep caller
// and mode. formed says the stages before the sweep set the input's peak:
// then every budget below it fails before the sweep; otherwise at least one
// budget must degrade.
func checkMemBudget(t *testing.T, run func(Config) (chaosRun, error), cfg Config, formed bool) {
	clean, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.blocks != 1 {
		t.Fatalf("unbudgeted run degraded: EffectiveBlocks = %d", clean.blocks)
	}
	// A budget the stages before the sweep already exceed fails before the
	// first panel, instead of climbing the ladder.
	preSweep := func(name string, got chaosRun) {
		if _, ran := got.sum.SectionMax[SectionB]; ran {
			t.Errorf("%s: ErrMemBudget after SUMMA stages ran, not before the sweep", name)
		}
	}

	peak := clean.sum.PeakBytes
	degraded := false
	for _, frac := range []float64{0.99, 0.875, 0.75} {
		budgeted := cfg
		budgeted.MemBudget = int64(float64(peak) * frac)
		name := fmt.Sprintf("budget %d (%.1f%% of peak %d)", budgeted.MemBudget, frac*100, peak)
		got, err := run(budgeted)
		if errors.Is(err, ErrMemBudget) {
			// A sweep-dominated input may exhaust the ladder once the
			// resident operands alone exceed the budget.
			t.Logf("%s: %v", name, err)
			if formed {
				preSweep(name, got)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if formed {
			t.Errorf("%s: admitted at %d waves, below the peak the stages before the sweep set", name, got.blocks)
		}
		degraded = degraded || got.blocks > 1
		sameGraph(t, fmt.Sprintf("%s, %d waves", name, got.blocks), got, clean)
		at := cfg
		at.Blocks = got.blocks
		ref, err := run(at)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d waves, unbudgeted peak %.3f× the budget", name, got.blocks,
			float64(ref.sum.PeakBytes)/float64(budgeted.MemBudget))
		if ref.sum.PeakBytes > budgeted.MemBudget {
			t.Errorf("%s: admitted at %d waves, whose unbudgeted run peaks at %d",
				name, got.blocks, ref.sum.PeakBytes)
		}
	}
	if !formed && !degraded {
		t.Errorf("no budget below peak %d triggered degradation", peak)
	}

	impossible := cfg
	impossible.MemBudget = 4096 // smaller than any operand block
	got, err := run(impossible)
	if !errors.Is(err, ErrMemBudget) {
		t.Fatalf("impossible budget: error %v does not wrap ErrMemBudget", err)
	}
	preSweep("impossible budget", got)
}

// wavyDataset is TestWaveMemoryBounded's shape: few, large families, so the
// candidate matrix dominates the sweep's footprint.
func wavyDataset(t *testing.T) *synth.Labeled {
	t.Helper()
	data, err := synth.Generate(synth.Config{
		Seed: 59, NumFamilies: 2, MembersMean: 45, Singletons: 8,
		MinLen: 120, MaxLen: 250, Divergence: 0.12, IndelRate: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Checkpoint files must survive crashes of the writer midway: the write
// protocol is tmp+rename, so a directory never holds a torn checkpoint.
func TestCheckpointAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	const fp = uint64(0xfeedbeef)
	st := checkpointState{Wave: 2, Blocks: 4, NnzB: 10, Edges: []Edge{{R: 1, C: 2}}}
	if err := writeCheckpoint(dir, fp, 0, 1, st); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if filepath.Ext(f.Name()) == ".tmp" {
			t.Errorf("tmp file left behind: %s", f.Name())
		}
	}
	got := newestCheckpoint(dir, fp, 0, 1)
	if got == nil || got.Wave != 2 || got.Blocks != 4 || len(got.Edges) != 1 {
		t.Fatalf("round-trip lost state: %+v", got)
	}
	// A corrupted checkpoint must be skipped, not crash the resume.
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no checkpoint written (%v)", err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(names[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := newestCheckpoint(dir, fp, 0, 1); got != nil {
		t.Errorf("corrupted checkpoint accepted: %+v", got)
	}
}
