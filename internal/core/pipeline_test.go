package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/alphabet"
	"repro/internal/fasta"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/scoring"
	"repro/internal/subkmer"
	"repro/internal/synth"
)

// statsEqual compares Stats including the per-stage slices (Stats stopped
// being ==-comparable when the cascade breakdown fields were added).
func statsEqual(a, b Stats) bool { return reflect.DeepEqual(a, b) }

// runPipeline executes the pipeline on p ranks over the records and returns
// the gathered edges (sorted) plus stats and the run's Summary for timing
// probes.
func runPipeline(t testing.TB, recs []fasta.Record, p int, cfg Config) ([]Edge, Stats, mpi.Summary) {
	t.Helper()
	var edges []Edge
	var stats Stats
	cl := mpi.NewCluster(p, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		n := len(recs)
		lo, hi := n*c.Rank()/p, n*(c.Rank()+1)/p
		res, err := Run(c, recs[lo:hi], cfg)
		if err != nil {
			return err
		}
		all, err := GatherEdges(c, res.Edges)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			edges = all
			stats = res.Stats
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].R != edges[j].R {
			return edges[i].R < edges[j].R
		}
		return edges[i].C < edges[j].C
	})
	sum, _ := cl.Summary()
	return edges, stats, sum
}

func familyDataset(t testing.TB, nFam int, seed int64) *synth.Labeled {
	t.Helper()
	data, err := synth.Generate(synth.Config{
		Seed: seed, NumFamilies: nFam, MembersMean: 5, Singletons: nFam * 2,
		MinLen: 80, MaxLen: 200, Divergence: 0.2, IndelRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPipelineFindsFamilies(t *testing.T) {
	data := familyDataset(t, 6, 11)
	cfg := DefaultConfig()
	edges, stats, _ := runPipeline(t, data.Records, 4, cfg)

	if stats.NumSeqs != int64(len(data.Records)) {
		t.Errorf("NumSeqs = %d, want %d", stats.NumSeqs, len(data.Records))
	}
	if stats.NNZA == 0 || stats.NNZB == 0 {
		t.Errorf("empty matrices: %+v", stats)
	}
	if len(edges) == 0 {
		t.Fatal("no edges found")
	}
	// Precision proxy: most retained edges must be intra-family.
	intra, inter := 0, 0
	for _, e := range edges {
		fr, fc := data.Families[e.R], data.Families[e.C]
		if fr >= 0 && fr == fc {
			intra++
		} else {
			inter++
		}
	}
	if intra < 9*inter {
		t.Errorf("edge quality too low: %d intra vs %d inter", intra, inter)
	}
	// Recall proxy: a decent share of same-family pairs must be recovered.
	famPairs := 0
	byFam := map[int]int{}
	for _, f := range data.Families {
		if f >= 0 {
			byFam[f]++
		}
	}
	for _, n := range byFam {
		famPairs += n * (n - 1) / 2
	}
	if intra*3 < famPairs {
		t.Errorf("recall too low: %d of %d family pairs", intra, famPairs)
	}
	// Edge invariants.
	for _, e := range edges {
		if e.R >= e.C {
			t.Fatalf("edge not normalized: %+v", e)
		}
		if e.Ident < cfg.MinIdentity || e.Cov < cfg.MinCoverage {
			t.Fatalf("edge violates ANI filter: %+v", e)
		}
	}
}

// The similarity graph and every Stats counter must be identical for every
// process count — the paper's reproducibility guarantee (Section V) — for
// every listed alignment kernel, and for every wave count on top. Seeds
// are chosen and pairs aligned in the pair's frame (types.go), so neither
// the seed choice nor a kernel's tie-breaking can see which block owns a
// pair. The metaclust-like inputs are the ones that gave it away before:
// pairs sharing more than two k-mers, no common-k-mer prune, a kernel that
// extends from the seeds it is handed (seed 3 at -subs 10: 1,890,700 cells
// on 1 rank, 1,890,775 on 4, and a different graph on 4 and 16).
func TestProcessCountOblivious(t *testing.T) {
	oblivious := func(label string, recs []fasta.Record, cfg Config, ranks, blocks []int) {
		t.Helper()
		var ref *chaosRun
		for _, p := range ranks {
			for _, nb := range blocks {
				cfg.Blocks = nb
				edges, stats, _ := runPipeline(t, recs, p, cfg)
				got := chaosRun{edges: edges, stats: stats}
				if ref == nil {
					ref = &got
					continue
				}
				sameGraph(t, fmt.Sprintf("%s p=%d blocks=%d", label, p, nb), got, *ref)
			}
		}
		if len(ref.edges) == 0 {
			t.Fatalf("%s: no edges to compare", label)
		}
	}

	families := familyDataset(t, 5, 7)
	for _, mode := range KernelModes() {
		for _, subs := range []int{0, 5} {
			cfg := DefaultConfig()
			cfg.Align = mode
			cfg.SubstituteKmers = subs
			oblivious(fmt.Sprintf("families mode=%v subs=%d", mode, subs),
				families.Records, cfg, []int{1, 4, 9}, []int{1})
		}
	}
	for _, seed := range []int64{3, 8} {
		data, err := synth.Generate(synth.DefaultMetaclustLike(300, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, subs := range []int{0, 10} {
			cfg := DefaultConfig()
			cfg.Align = AlignUngapped
			cfg.Weight = WeightNS
			cfg.SubstituteKmers = subs
			oblivious(fmt.Sprintf("metaclust seed=%d subs=%d", seed, subs),
				data.Records, cfg, []int{1, 4, 9, 16}, []int{1, 3})
		}
	}
}

// The similarity graph must also be identical for every intra-rank thread
// count — the determinism contract of the hybrid-parallel refactor (parallel
// SpGEMM chunks and alignment chunks merge in deterministic order). Run with
// -race to validate the concurrency.
func TestThreadCountOblivious(t *testing.T) {
	data := familyDataset(t, 5, 43)
	for _, mode := range []AlignMode{AlignXDrop, AlignSW} {
		for _, subs := range []int{0, 5} {
			cfg := DefaultConfig()
			cfg.Align = mode
			cfg.SubstituteKmers = subs
			var ref []Edge
			var refStats Stats
			for _, threads := range []int{1, 2, 3, 8} {
				cfg.Threads = threads
				edges, stats, _ := runPipeline(t, data.Records, 4, cfg)
				if ref == nil {
					ref, refStats = edges, stats
					continue
				}
				if !statsEqual(stats, refStats) {
					t.Fatalf("mode=%v subs=%d threads=%d: stats %+v differ from serial %+v",
						mode, subs, threads, stats, refStats)
				}
				if len(edges) != len(ref) {
					t.Fatalf("mode=%v subs=%d threads=%d: %d edges vs %d",
						mode, subs, threads, len(edges), len(ref))
				}
				for i := range ref {
					if edges[i] != ref[i] {
						t.Fatalf("mode=%v subs=%d threads=%d: edge %d differs: %+v vs %+v",
							mode, subs, threads, i, edges[i], ref[i])
					}
				}
			}
			if len(ref) == 0 {
				t.Fatalf("mode=%v subs=%d: no edges to compare", mode, subs)
			}
		}
	}
}

// Threading must shrink the virtual time of the parallel stages (SpGEMM and
// alignment) while leaving the result untouched: the clock charges parallel
// compute as ops/threads, capped by the model's cores per node.
func TestThreadsSpeedUpVirtualTime(t *testing.T) {
	data := familyDataset(t, 6, 47)
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 5

	// Lower the modeled compute rate so the tiny test dataset sits in the
	// compute-dominated regime the paper measures (same trick as the
	// experiments' scalingModel); otherwise broadcast latency hides the
	// SpGEMM flop speedup at this scale.
	model := mpi.DefaultCostModel()
	model.ComputeRate = 4e7
	run := func(threads int) map[string]float64 {
		cfg.Threads = threads
		cl := mpi.NewCluster(4, model)
		err := cl.Run(func(c *mpi.Comm) error {
			n := len(data.Records)
			lo, hi := n*c.Rank()/4, n*(c.Rank()+1)/4
			_, err := Run(c, data.Records[lo:hi], cfg)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := cl.Summary()
		return sum.SectionMax
	}
	times := map[int]map[string]float64{}
	for _, threads := range []int{1, 4} {
		times[threads] = run(threads)
	}
	for _, section := range []string{SectionB, SectionAlign} {
		t1, t4 := times[1][section], times[4][section]
		if t4 <= 0 || t1 <= 0 {
			t.Fatalf("section %q missing: %v", section, times)
		}
		if speedup := t1 / t4; speedup < 2 {
			t.Errorf("section %q: 4-thread speedup %.2fx, want >= 2x (%g -> %g s)",
				section, speedup, t1, t4)
		}
	}
	// Threads beyond the modeled node cores must not speed the clock further.
	cfg.Threads = model.CoresPerNode
	_, _, sumCap := runPipeline(t, data.Records, 4, cfg)
	cfg.Threads = model.CoresPerNode * 64
	_, _, sumOver := runPipeline(t, data.Records, 4, cfg)
	if a, b := sumCap.SectionMax[SectionAlign], sumOver.SectionMax[SectionAlign]; a != b {
		t.Errorf("CoresPerNode cap not applied: align %g s at cap vs %g s oversubscribed", a, b)
	}
}

// The similarity graph must be identical for every wave count — the
// memory-bounded blocked pipeline's determinism contract, across both the
// exact path (streamed A·Aᵀ panels) and the substitute path (dual-product
// symmetrization panels), crossed with intra-rank thread counts. Run with
// -race to validate the wave/SUMMA overlap concurrency.
func TestBlocksOblivious(t *testing.T) {
	data := familyDataset(t, 5, 53)
	for _, subs := range []int{0, 5} {
		cfg := DefaultConfig()
		cfg.SubstituteKmers = subs
		cfg.CommonKmerThreshold = 1
		var ref []Edge
		var refStats Stats
		for _, variant := range []struct{ blocks, threads int }{
			{1, 1}, {2, 1}, {8, 1}, {1, 8}, {2, 8}, {8, 8}, {3, 2},
		} {
			cfg.Blocks = variant.blocks
			cfg.Threads = variant.threads
			edges, stats, _ := runPipeline(t, data.Records, 4, cfg)
			if ref == nil {
				ref, refStats = edges, stats
				continue
			}
			if !statsEqual(stats, refStats) {
				t.Fatalf("subs=%d blocks=%d threads=%d: stats %+v differ from reference %+v",
					subs, variant.blocks, variant.threads, stats, refStats)
			}
			if len(edges) != len(ref) {
				t.Fatalf("subs=%d blocks=%d threads=%d: %d edges vs %d",
					subs, variant.blocks, variant.threads, len(edges), len(ref))
			}
			for i := range ref {
				if edges[i] != ref[i] {
					t.Fatalf("subs=%d blocks=%d threads=%d: edge %d differs: %+v vs %+v",
						subs, variant.blocks, variant.threads, i, edges[i], ref[i])
				}
			}
		}
		if len(ref) == 0 {
			t.Fatalf("subs=%d: no edges to compare", subs)
		}
	}
}

// oneFamilyDataset is a single large family of short, close sequences (290
// of them): the candidate matrix B dwarfs every operand, so the wave's
// merge and prune set the rank's peak.
func oneFamilyDataset(t testing.TB) *synth.Labeled {
	t.Helper()
	data, err := synth.Generate(synth.Config{
		Seed: 7, NumFamilies: 1, MembersMean: 400, MinLen: 60, MaxLen: 80,
		Divergence: 0.05, IndelRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// More waves must mean a lower per-rank memory high-water mark: the whole
// point of the blocked pipeline. Virtual runtime must stay close to the
// single-wave run (the trade is memory for a little broadcast volume, and
// waves win back time by hiding alignment under the next panel's SUMMA).
// The first dataset uses large families so the candidate matrix B dominates
// the sweep, the paper's production regime (B is quadratic in similar
// pairs); the substitute path is exercised for peaks not regressing — its
// panels share the run with the constant-size AS/(AS)ᵀ operands, which
// dominate at unit-test scale.
func TestWaveMemoryBounded(t *testing.T) {
	data, err := synth.Generate(synth.Config{
		Seed: 59, NumFamilies: 2, MembersMean: 45, Singletons: 8,
		MinLen: 120, MaxLen: 250, Divergence: 0.12, IndelRate: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compute-dominated regime (the scale trick TestThreadsSpeedUpVirtualTime
	// uses): at nominal rates the tiny dataset is latency-bound and the
	// panel broadcast overhead would be magnified far beyond the paper's.
	model := mpi.DefaultCostModel()
	model.ComputeRate = 4e7
	// sweepPeaks runs the all-vs-all pipeline on 4 ranks and reads out the
	// whole run's Summary and the sweep's own ledger window: the high-water
	// mark sweep's budget check reads through mpi.Clock.PeakSinceMark,
	// opened once the target is built.
	sweepPeaks := func(recs []fasta.Record, cfg Config, model mpi.CostModel) (sum mpi.Summary, window int64) {
		cl := mpi.NewCluster(4, model)
		err := cl.Run(func(c *mpi.Comm) error {
			r, err := openRun(c, cfg)
			if err != nil {
				return err
			}
			defer r.close()
			n := len(recs)
			tg, err := buildTarget(r, recs[n*c.Rank()/4:n*(c.Rank()+1)/4], false)
			if err != nil {
				return err
			}
			ops := &operands{r: r, f: symmetricFrame(r.grid), a: tg.a, as: tg.as, at: tg.at}
			c.Clock().PeakSinceMark()
			if _, err := sweep(r, ops, tg.store, ops.f, nil, tg.stats); err != nil {
				return err
			}
			peak, err := c.TryAllreduceInt64("max", c.Clock().PeakSinceMark())
			if c.Rank() == 0 {
				window = peak
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, _ = cl.Summary()
		return sum, window
	}
	// waves holds one input's sweep to the blocked pipeline's contract over
	// Blocks 1, 2, 4, 8: each wave count's sweep window (or, with whole, its
	// whole-run peak) strictly below the previous one's, every whole-run
	// peak under its ceiling, and virtual time within 1.15× the single wave.
	waves := func(name string, recs []fasta.Record, cfg Config, model mpi.CostModel, whole bool, ceilings [4]int64) {
		var prev int64
		var baseTime float64
		for i, blocks := range []int{1, 2, 4, 8} {
			cfg.Blocks = blocks
			sum, window := sweepPeaks(recs, cfg, model)
			t.Logf("%s: blocks=%d peak %d, sweep window %d", name, blocks, sum.PeakBytes, window)
			if sum.PeakBytes <= 0 {
				t.Fatalf("%s: blocks=%d: no peak recorded", name, blocks)
			}
			if sum.PeakBytes >= ceilings[i] {
				t.Errorf("%s: blocks=%d: peak %d not under %d", name, blocks, sum.PeakBytes, ceilings[i])
			}
			if whole {
				window = sum.PeakBytes
			}
			if i == 0 {
				baseTime = sum.Time
			} else if window >= prev {
				t.Errorf("%s: peak bytes did not decrease: blocks=%d peak=%d vs previous %d",
					name, blocks, window, prev)
			}
			if tm := sum.Time; tm > baseTime*1.15 {
				t.Errorf("%s: blocks=%d: virtual time %g exceeds 1.15x single-wave %g",
					name, blocks, tm, baseTime)
			}
			prev = window
		}
	}

	// Exact path. The exact all-vs-all A keeps only the k-mers two sequences
	// share, and on this input A formed whole, before that prune, sets the
	// run's peak at every wave count; the sweep's own window must strictly
	// decrease, and every whole-run peak stay under what the run peaked at
	// while A kept every k-mer.
	cfg := DefaultConfig()
	cfg.CommonKmerThreshold = 1
	waves("exact", data.Records, cfg, model, false, [4]int64{171392, 161340, 152844, 149084})
	// On the one-family input B dominates the whole run, formation included:
	// the whole-run peak itself must strictly decrease. Its 42,000 candidate
	// pairs go unaligned: the sweep's B, not its graph, is what this holds.
	one := oneFamilyDataset(t)
	exactOne := DefaultConfig()
	exactOne.Align = AlignNone
	waves("one family, exact", one.Records, exactOne, mpi.DefaultCostModel(), true,
		[4]int64{1605192, 1352912, 909912, 580536})

	// Substitute path. A multi-wave split runs the dual product, whose panel
	// transients shrink with the wave count: the sweep's own window must
	// strictly decrease over Blocks 2 → 4 → 8. The whole run's peak need not:
	// the stages before the sweep (the expansion) can set it. The single-wave
	// plan is not the ceiling here — it never builds (AS)ᵀ, and on this
	// operand-dominated input that operand outweighs the panels — so the bound
	// every wave count's whole-run peak is held to is what the SUMMA A·S the
	// expansion replaced peaked at on this input (S resident beside the
	// product's stage transients). No budget that was reachable at some Blocks
	// may stop being reachable there.
	cfg.SubstituteKmers = 5
	var prevPeak int64
	for _, tc := range []struct {
		blocks  int
		ceiling int64
	}{{1, 1699308}, {2, 1498284}, {4, 1401100}, {8, 1305756}} {
		cfg.Blocks = tc.blocks
		sum, window := sweepPeaks(data.Records, cfg, model)
		peak := sum.PeakBytes
		t.Logf("substitute path: blocks=%d peak %d, sweep window %d", tc.blocks, peak, window)
		if peak > tc.ceiling {
			t.Errorf("substitute path: blocks=%d peak %d exceeds the A·S product's %d", tc.blocks, peak, tc.ceiling)
		}
		if tc.blocks > 2 && window >= prevPeak {
			t.Errorf("substitute path: dual-product sweep window did not decrease: blocks=%d peak=%d vs previous %d",
				tc.blocks, window, prevPeak)
		}
		prevPeak = window
	}

	// B-dominated: on the one-family input the wave's merge and prune set
	// the rank's peak. The merged block replaces the panel's B and Bᵀ halves
	// before the prune's transients are charged beside it, so switching the
	// prune on (CommonKmerThreshold 3) must not raise the peak a run without
	// it reaches, whether the Bᵀ half is B transposed (Blocks 1) or the
	// product A·(AS)ᵀ (Blocks 4).
	for _, subs := range []int{1, 5} {
		for _, blocks := range []int{1, 4} {
			var peaks [2]int64
			for i, ck := range []int{0, 3} {
				cfg := DefaultConfig()
				cfg.Align, cfg.SubstituteKmers, cfg.Blocks, cfg.CommonKmerThreshold = AlignNone, subs, blocks, ck
				_, _, sum := runPipeline(t, one.Records, 4, cfg)
				peaks[i] = sum.PeakBytes
			}
			t.Logf("one family: subs=%d blocks=%d peak %d (threshold 0), %d (threshold 3)", subs, blocks, peaks[0], peaks[1])
			if peaks[1] != peaks[0] {
				t.Errorf("one family: subs=%d blocks=%d: the prune raised the peak from %d to %d", subs, blocks, peaks[0], peaks[1])
			}
		}
	}
}

// Substitute k-mers must strictly widen the candidate space (more pairs
// aligned) and not lose exact-match candidates: the paper's recall argument.
func TestSubstituteKmersIncreaseCandidates(t *testing.T) {
	data := familyDataset(t, 6, 13)
	base := DefaultConfig()
	exact, statsExact, _ := runPipeline(t, data.Records, 4, base)

	subs := base
	subs.SubstituteKmers = 10
	wide, statsSubs, _ := runPipeline(t, data.Records, 4, subs)

	if statsSubs.PairsAligned <= statsExact.PairsAligned {
		t.Errorf("substitute k-mers should align more pairs: %d vs %d",
			statsSubs.PairsAligned, statsExact.PairsAligned)
	}
	// Edge set should be a superset in practice; verify no exact edge lost.
	have := map[[2]int64]bool{}
	for _, e := range wide {
		have[[2]int64{int64(e.R), int64(e.C)}] = true
	}
	missing := 0
	for _, e := range exact {
		if !have[[2]int64{int64(e.R), int64(e.C)}] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d exact edges lost with substitutes (%d exact, %d wide)",
			missing, len(exact), len(wide))
	}
}

// The common-k-mer threshold must reduce alignments (drastically, per the
// paper: often >90%) while keeping the result usable.
func TestCommonKmerThresholdCutsAlignments(t *testing.T) {
	data := familyDataset(t, 6, 17)
	cfg := DefaultConfig()
	_, statsAll, _ := runPipeline(t, data.Records, 4, cfg)

	ck := cfg
	ck.CommonKmerThreshold = 1
	edges, statsCK, _ := runPipeline(t, data.Records, 4, ck)

	if statsCK.PairsAligned >= statsAll.PairsAligned {
		t.Errorf("CK should cut alignments: %d vs %d",
			statsCK.PairsAligned, statsAll.PairsAligned)
	}
	if len(edges) == 0 {
		t.Error("CK variant found no edges at all")
	}
}

func TestNSWeightMode(t *testing.T) {
	data := familyDataset(t, 4, 19)
	cfg := DefaultConfig()
	cfg.Weight = WeightNS
	edges, _, _ := runPipeline(t, data.Records, 4, cfg)
	if len(edges) == 0 {
		t.Fatal("no NS edges")
	}
	for _, e := range edges {
		if e.Weight <= 0 {
			t.Fatalf("NS weight must be positive: %+v", e)
		}
		if e.Weight != e.NS {
			t.Fatalf("NS mode should weight by NS: %+v", e)
		}
	}
}

// Matrix-only mode must produce no edges but still populate matrix stats,
// and the component sections must cover the expected names.
func TestSkipAlignmentSections(t *testing.T) {
	data := familyDataset(t, 4, 23)
	cfg := DefaultConfig()
	cfg.Align = AlignNone
	cfg.SubstituteKmers = 5

	edges, stats, sum := runPipeline(t, data.Records, 4, cfg)
	if len(edges) != 0 {
		t.Error("AlignNone must not align")
	}
	if stats.NNZAS == 0 {
		t.Errorf("substitute path stats empty: %+v", stats)
	}
	secs := sum.SectionMax
	for _, name := range []string{SectionFasta, SectionFormA, SectionTrA,
		SectionFormS, SectionAS, SectionB, SectionSym, SectionWait} {
		if _, ok := secs[name]; !ok {
			t.Errorf("missing section %q (have %v)", name, secs)
		}
	}
	if _, ok := secs[SectionAlign]; ok {
		t.Error("align section should be absent in AlignNone mode")
	}
}

// Exact path must not include substitute-only sections.
func TestExactPathSections(t *testing.T) {
	data := familyDataset(t, 4, 29)
	cfg := DefaultConfig()
	cfg.Align = AlignNone
	_, _, sum := runPipeline(t, data.Records, 4, cfg)
	secs := sum.SectionMax
	for _, name := range []string{SectionFormS, SectionAS, SectionSym} {
		if _, ok := secs[name]; ok {
			t.Errorf("exact path should not have section %q", name)
		}
	}
}

// B's diagonal counts each sequence's distinct k-mers; its structure must be
// symmetric under exact matching. Verified through the stats invariant that
// every aligned pair appears exactly once.
func TestUpperTrianglePartition(t *testing.T) {
	data := familyDataset(t, 5, 31)
	cfg := DefaultConfig()
	cfg.MinIdentity = 0 // keep everything
	cfg.MinCoverage = 0
	for _, p := range []int{1, 4, 9} {
		edges, _, _ := runPipeline(t, data.Records, p, cfg)
		seen := map[[2]int64]int{}
		for _, e := range edges {
			seen[[2]int64{int64(e.R), int64(e.C)}]++
		}
		for pair, n := range seen {
			if n != 1 {
				t.Fatalf("p=%d: pair %v aligned %d times", p, pair, n)
			}
		}
	}
}

// TestNNZBCountsOwnedPairs holds Stats.NNZB to a brute-force count of the
// distinct unordered pairs of sequences sharing a k-mer — through a
// substitute of one side's k-mer on the -subs path — at every rank count,
// wave count and under the strawman assignment: each owned candidate pair is
// formed once, and no self pair is.
func TestNNZBCountsOwnedPairs(t *testing.T) {
	data := familyDataset(t, 8, 47)
	for _, subs := range []int{0, 10} {
		cfg := DefaultConfig()
		cfg.Align = AlignNone
		cfg.SubstituteKmers = subs
		want := candidatePairs(t, data.Records, cfg)
		for _, p := range []int{1, 4, 9} {
			for _, blocks := range []int{1, 3} {
				for _, naive := range []bool{false, true} {
					if naive && (p != 4 || blocks != 3) {
						continue
					}
					cfg.Blocks, cfg.NaiveTriangle = blocks, naive
					_, stats, _ := runPipeline(t, data.Records, p, cfg)
					if stats.NNZB != want {
						t.Errorf("subs %d, %d ranks, %d blocks, naive %v: NNZB %d, want %d candidate pairs",
							subs, p, blocks, naive, stats.NNZB, want)
					}
				}
			}
		}
	}
}

// candidatePairs counts by brute force the unordered pairs {i, j}, i != j,
// where a k-mer of one sequence — or, with substitute k-mers, one of its
// cfg.SubstituteKmers nearest substitutes — occurs in the other.
func candidatePairs(t *testing.T, recs []fasta.Record, cfg Config) int64 {
	t.Helper()
	e := scoring.NewExpense(scoring.BLOSUM62)
	kmers := make([]map[kmer.ID]bool, len(recs))
	reach := make([]map[kmer.ID]bool, len(recs))
	for i, rec := range recs {
		kms, err := kmer.Extract(rec.Seq, cfg.K, true)
		if err != nil {
			t.Fatal(err)
		}
		kmers[i], reach[i] = map[kmer.ID]bool{}, map[kmer.ID]bool{}
		for _, km := range kms {
			kmers[i][km.ID], reach[i][km.ID] = true, true
			if cfg.SubstituteKmers == 0 {
				continue
			}
			nbrs, err := subkmer.Find(km.ID, cfg.K, e, cfg.SubstituteKmers)
			if err != nil {
				t.Fatal(err)
			}
			for _, nb := range nbrs {
				reach[i][nb.ID] = true
			}
		}
	}
	reaches := func(i, j int) bool {
		for id := range reach[i] {
			if kmers[j][id] {
				return true
			}
		}
		return false
	}
	var n int64
	for i := range recs {
		for j := i + 1; j < len(recs); j++ {
			if reaches(i, j) || reaches(j, i) {
				n++
			}
		}
	}
	return n
}

func TestBlockingExchangeAblation(t *testing.T) {
	data := familyDataset(t, 5, 37)
	cfg := DefaultConfig()
	overlapped, _, sumOver := runPipeline(t, data.Records, 4, cfg)

	cfg.BlockingExchange = true
	blocking, _, sumBlock := runPipeline(t, data.Records, 4, cfg)

	if len(overlapped) != len(blocking) {
		t.Fatalf("overlap ablation changed results: %d vs %d edges",
			len(overlapped), len(blocking))
	}
	for i := range overlapped {
		if overlapped[i] != blocking[i] {
			t.Fatalf("edge %d differs between overlap modes", i)
		}
	}
	// Overlapped mode must not be slower in virtual time.
	if sumOver.Time > sumBlock.Time*1.001 {
		t.Errorf("overlapped run (%g) slower than blocking (%g)",
			sumOver.Time, sumBlock.Time)
	}
}

func TestConfigValidation(t *testing.T) {
	data := familyDataset(t, 2, 41)
	bad := []Config{
		{K: 0},
		{K: 99},
		func() Config { c := DefaultConfig(); c.SubstituteKmers = -1; return c }(),
		func() Config { c := DefaultConfig(); c.MinIdentity = 40; return c }(),
	}
	for i, cfg := range bad {
		cl := mpi.NewCluster(1, mpi.DefaultCostModel())
		err := cl.Run(func(c *mpi.Comm) error {
			_, err := Run(c, data.Records, cfg)
			return err
		})
		if err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

// Alignment parameters outside what the kernels can score are rejected by
// name before anything runs: negative penalties, and values beyond the
// x-drop kernel's packed score field. core's bound must be the kernel's own —
// the largest value validate admits still aligns, one more is refused by
// both.
func TestValidateAlignParams(t *testing.T) {
	set := map[string]func(*Config, int){
		"GapOpen":    func(c *Config, v int) { c.GapOpen = v },
		"GapExtend":  func(c *Config, v int) { c.GapExtend = v },
		"XDropValue": func(c *Config, v int) { c.XDropValue = v },
	}
	s, err := alphabet.EncodeSeq([]byte("MKVLAWHPLCQERNDYFI"))
	if err != nil {
		t.Fatal(err)
	}
	xd, err := align.NewKernel("xd")
	if err != nil {
		t.Fatal(err)
	}
	kernelTakes := func(cfg Config) error {
		_, err := xd.Align(s, s, []align.Seed{{PosA: 6, PosB: 6, K: 6}}, align.Params{
			Scoring: align.Scoring{Matrix: scoring.BLOSUM62, GapOpen: cfg.GapOpen, GapExtend: cfg.GapExtend},
			XDrop:   cfg.XDropValue,
		})
		return err
	}
	for name, setField := range set {
		for _, v := range []int{0, maxAlignPenalty} {
			cfg := DefaultConfig()
			setField(&cfg, v)
			if err := validate(cfg); err != nil {
				t.Errorf("%s=%d rejected: %v", name, v, err)
			}
			if err := kernelTakes(cfg); err != nil {
				t.Errorf("%s=%d passes validate but not the kernel: %v", name, v, err)
			}
		}
		for _, v := range []int{-1, maxAlignPenalty + 1, 1 << 28, 1000000000} {
			cfg := DefaultConfig()
			setField(&cfg, v)
			err := validate(cfg)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s=%d: validate returned %v, want an error naming the field", name, v, err)
			}
			if kernelTakes(cfg) == nil {
				t.Errorf("%s=%d: the kernel itself should refuse it", name, v)
			}
		}
	}
}

// A pair beyond the x-drop kernel's packed lanes must fail the run, naming
// the pair — not drop out of the graph as if its seeds had fallen off. The
// bound is the xd kernel's alone: the same input runs under ug.
func TestRunFailsOnOverlongPair(t *testing.T) {
	const n = 1 << 18
	rng := rand.New(rand.NewSource(3))
	long := func(shared []byte) []byte {
		seq := make([]byte, n)
		for i := range seq {
			seq[i] = alphabet.Letters[rng.Intn(20)]
		}
		copy(seq, shared)
		return seq
	}
	first := long(nil)
	recs := []fasta.Record{
		{ID: "a", Seq: first},
		{ID: "b", Seq: long(first[:40])},
	}
	run := func(mode AlignMode) error {
		cfg := DefaultConfig()
		cfg.Align = mode
		cl := mpi.NewCluster(1, mpi.DefaultCostModel())
		return cl.Run(func(c *mpi.Comm) error {
			_, err := Run(c, recs, cfg)
			return err
		})
	}
	err := run(AlignXDrop)
	if !errors.Is(err, align.ErrSequenceTooLong) {
		t.Fatalf("xd run on a 2x%d pair: %v, want ErrSequenceTooLong", n, err)
	}
	for _, want := range []string{"sequences 0 ", "and 1 ", fmt.Sprintf("(%d residues)", n)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the pair (missing %q)", err, want)
		}
	}
	if err := run(AlignUngapped); err != nil {
		t.Errorf("ug run on the same input: %v", err)
	}
}

func TestMergeOverlap(t *testing.T) {
	a := Overlap{Count: 1, NumSeeds: 1, Seeds: [2]SeedPos{{PosR: 5, PosC: 9, Dist: 2}}}
	b := Overlap{Count: 2, NumSeeds: 2, Seeds: [2]SeedPos{
		{PosR: 1, PosC: 1, Dist: 0}, {PosR: 7, PosC: 7, Dist: 4},
	}}
	m := MergeOverlap(a, b)
	if m.Count != 3 {
		t.Errorf("count = %d", m.Count)
	}
	if m.NumSeeds != 2 {
		t.Fatalf("numSeeds = %d", m.NumSeeds)
	}
	if m.Seeds[0].Dist != 0 || m.Seeds[1].Dist != 2 {
		t.Errorf("seeds not distance-ordered: %+v", m.Seeds)
	}
	// Merging with itself dedupes seeds.
	self := MergeOverlap(a, a)
	if self.NumSeeds != 1 {
		t.Errorf("self merge should dedupe seeds: %+v", self)
	}
	if self.Count != 2 {
		t.Errorf("self merge count = %d", self.Count)
	}
}

// The retained seeds must be a function of the unordered pair: folding a
// pair's shared k-mers as the block that holds it as (i, j) forms them, and
// folding the same k-mers as the mirrored block forms them at (j, i) — below
// the grid diagonal, or in the lower triangle of a diagonal block — give the
// same Overlap, for all three products. (AS)·Aᵀ seen from the mirror is
// A·(AS)ᵀ and vice versa: the substitute side stays on the same sequence.
func TestSeedsFrameFree(t *testing.T) {
	type hit struct{ posI, posJ, dist int32 }
	fold := func(mul func(h hit) Overlap, hits []hit) Overlap {
		acc := mul(hits[0])
		for _, h := range hits[1:] {
			acc = MergeOverlap(acc, mul(h))
		}
		return acc
	}
	const i, j = 3, 11 // block-local, i < j
	nat := frameAbove
	products := []struct {
		name    string
		natural func(h hit) Overlap
		mirror  func(f frame) func(h hit) Overlap
	}{
		{"A·Aᵀ",
			func(h hit) Overlap { return nat.exact().Multiply(i, j, h.posI, h.posJ) },
			func(f frame) func(hit) Overlap {
				return func(h hit) Overlap { return f.exact().Multiply(j, i, h.posJ, h.posI) }
			}},
		{"(AS)·Aᵀ",
			func(h hit) Overlap { return nat.subRows().Multiply(i, j, PosDist{h.posI, h.dist}, h.posJ) },
			func(f frame) func(hit) Overlap {
				return func(h hit) Overlap { return f.subCols().Multiply(j, i, h.posJ, PosDist{h.posI, h.dist}) }
			}},
		{"A·(AS)ᵀ",
			func(h hit) Overlap { return nat.subCols().Multiply(i, j, h.posI, PosDist{h.posJ, h.dist}) },
			func(f frame) func(hit) Overlap {
				return func(h hit) Overlap { return f.subRows().Multiply(j, i, PosDist{h.posJ, h.dist}, h.posI) }
			}},
	}
	rng := rand.New(rand.NewSource(23))
	lateSwapDiffers := 0
	for trial := 0; trial < 2000; trial++ {
		// >= 3 seeds on distinct diagonals, with ties on Dist and on PosR so
		// the (Dist, PosR, PosC) order has to reach its last key.
		hits := make([]hit, 3+rng.Intn(4))
		for n := range hits {
			hits[n] = hit{posI: int32(rng.Intn(6)), posJ: int32(rng.Intn(6)) + int32(7*n), dist: int32(rng.Intn(2))}
		}
		for _, p := range products {
			want := fold(p.natural, hits)
			for _, f := range []frame{frameBelow, frameDiag} {
				if got := fold(p.mirror(f), hits); got != want {
					t.Fatalf("%s, mirror frame %d, hits %v:\n got %+v\nwant %+v", p.name, f, hits, got, want)
				}
			}
			// What the tree did before frames: choose in the mirrored block's
			// own (row, column) order and swap the survivors afterwards.
			late := fold(p.mirror(frameRect), hits)
			for n := range late.Seeds[:late.NumSeeds] {
				late.Seeds[n].PosR, late.Seeds[n].PosC = late.Seeds[n].PosC, late.Seeds[n].PosR
			}
			if late.NumSeeds == 2 && seedLess(late.Seeds[1], late.Seeds[0]) {
				late.Seeds[0], late.Seeds[1] = late.Seeds[1], late.Seeds[0]
			}
			if late != want {
				lateSwapDiffers++
			}
		}
	}
	if lateSwapDiffers == 0 {
		t.Error("the draws never made choose-then-swap disagree: the gate tests nothing")
	}
	// A rectangular sweep and the blocks above the diagonal keep seeds as formed.
	for _, f := range []frame{frameRect, frameAbove} {
		if f.mirrored(j, i) {
			t.Errorf("frame %d mirrors an entry", f)
		}
	}
	if frameDiag.mirrored(i, j) || frameDiag.mirrored(i, i) {
		t.Error("a diagonal block mirrors an entry of its upper triangle")
	}
}

func TestOverlapCodecRoundTrip(t *testing.T) {
	vals := []Overlap{
		{},
		{Count: 7, NumSeeds: 1, Seeds: [2]SeedPos{{PosR: 1, PosC: 2, Dist: 3}}},
		{Count: -1, NumSeeds: 2, Seeds: [2]SeedPos{{PosR: 100, PosC: 200, Dist: 0}, {PosR: 5, PosC: 5, Dist: 9}}},
	}
	for _, v := range vals {
		buf := OverlapCodec.Append(nil, v)
		got, n := OverlapCodec.Decode(buf)
		if n != len(buf) || got != v {
			t.Errorf("codec round trip: %+v -> %+v (n=%d len=%d)", v, got, n, len(buf))
		}
	}
	pd := PosDist{Pos: 42, Dist: -7}
	buf := PosDistCodec.Append(nil, pd)
	got, n := PosDistCodec.Decode(buf)
	if n != 8 || got != pd {
		t.Errorf("PosDist codec: %+v -> %+v", pd, got)
	}
}

func BenchmarkPipelineExact(b *testing.B) {
	data := familyDataset(b, 8, 3)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipeline(b, data.Records, 4, cfg)
	}
}

// The zero-value AlignMode must be rejected loudly (the zero Config is not
// runnable), never silently treated as a kernel or as AlignNone.
func TestEmptyAlignModeRejected(t *testing.T) {
	data := familyDataset(t, 2, 61)
	cfg := DefaultConfig()
	cfg.Align = ""
	cl := mpi.NewCluster(1, mpi.DefaultCostModel())
	err := cl.Run(func(c *mpi.Comm) error {
		_, err := Run(c, data.Records, cfg)
		return err
	})
	if err == nil {
		t.Fatal("empty Align mode should be rejected")
	}
}
