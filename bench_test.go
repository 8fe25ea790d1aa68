package pastis

// One benchmark per table and figure of the paper's evaluation, wrapping
// the experiment harness at reduced scale (see internal/experiments and
// EXPERIMENTS.md). Each benchmark regenerates the corresponding rows and
// reports the row count; run cmd/pastis-bench to see the tables themselves.
//
// Additional ablation benchmarks cover the design choices
// docs/ARCHITECTURE.md calls out; the remaining micro-benchmarks live next
// to their packages (spmat: the hash SpGEMM kernel and its heap reference;
// subkmer: heap vs naive neighbor search; align: SW vs x-drop).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/spmat"
)

// benchScale keeps each experiment benchmark in the seconds range.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Name:     "bench",
		DatasetA: 100, DatasetB: 200,
		NodesSmall:     []int{1, 4, 16, 64},
		ScalingDataset: 200,
		NodesLarge:     []int{16, 64, 256},
		WeakBase:       80,
		WeakNodes:      []int{4, 16, 64},
		ScopeFamilies:  8,
	}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := exp.Fn(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		b.ReportMetric(float64(len(table.Rows)), "rows")
	}
}

// BenchmarkFig12PastisVariants regenerates Fig. 12 (runtime of the eight
// PASTIS variants on two datasets across node counts).
func BenchmarkFig12PastisVariants(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13Comparison regenerates Fig. 13 (PASTIS vs MMseqs2-like vs
// LAST-like runtime).
func BenchmarkFig13Comparison(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkTable1AlignmentPct regenerates Table I (alignment time share).
func BenchmarkTable1AlignmentPct(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig14StrongScaling regenerates Fig. 14 left (strong scaling of
// the sparse matrix pipeline).
func BenchmarkFig14StrongScaling(b *testing.B) { runExperiment(b, "fig14strong") }

// BenchmarkFig14WeakScaling regenerates Fig. 14 right (weak scaling).
func BenchmarkFig14WeakScaling(b *testing.B) { runExperiment(b, "fig14weak") }

// BenchmarkFig15Dissection regenerates Fig. 15 (component time shares).
func BenchmarkFig15Dissection(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16ComponentScaling regenerates Fig. 16 (per-component
// scaling curves).
func BenchmarkFig16ComponentScaling(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17PrecisionRecall regenerates Fig. 17 (precision/recall of
// PASTIS, MMseqs2-like and LAST-like after MCL clustering).
func BenchmarkFig17PrecisionRecall(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkTable2ConnectedComponents regenerates Table II (connected
// components as protein families).
func BenchmarkTable2ConnectedComponents(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkClaims re-measures the quantitative statements quoted in the
// paper's running text (alignment multipliers, nonzero growth,
// hypersparsity, process obliviousness).
func BenchmarkClaims(b *testing.B) { runExperiment(b, "claims") }

// BenchmarkAblations runs the design-choice ablation suite: local SpGEMM
// kernel, DCSC vs CSC pointer storage, overlapped vs blocking sequence
// exchange, substitute-k-mer search algorithm, and the Fig. 11 alignment
// assignment vs the naive idle-processes strawman.
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }

// benchThreadCounts parameterizes the hybrid-parallelism benchmarks: ns/op
// shows wall-clock speedup across these on multi-core hosts, the reported
// virtual-time metrics show the clock's speedup everywhere.
var benchThreadCounts = []int{1, 2, 4, 8}

// BenchmarkSpGEMMParallel measures the chunked parallel local SpGEMM kernel
// directly (wall time) across thread counts. Output is bit-identical across
// all variants; only the speed may differ.
func BenchmarkSpGEMMParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const n, nnz = 600, 12000
	ts := make([]spmat.Triple[float64], 0, nnz)
	seen := map[[2]spmat.Index]bool{}
	for len(ts) < nnz {
		r, c := spmat.Index(rng.Intn(n)), spmat.Index(rng.Intn(n))
		if seen[[2]spmat.Index{r, c}] {
			continue
		}
		seen[[2]spmat.Index{r, c}] = true
		ts = append(ts, spmat.Triple[float64]{Row: r, Col: c, Val: float64(rng.Intn(9) + 1)})
	}
	x, err := spmat.FromTriples(n, n, ts, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("hash/t%d", threads), func(b *testing.B) {
			var flops int64
			for i := 0; i < b.N; i++ {
				_, stats, err := spmat.SpGEMM(x, x, spmat.Arithmetic, spmat.SpGEMMOpts{Threads: threads})
				if err != nil {
					b.Fatal(err)
				}
				flops = stats.Flops
			}
			b.ReportMetric(float64(flops), "flops")
		})
	}
}

// BenchmarkAlignBatch measures the batched streaming aligner through the
// public pipeline across thread counts, reporting the virtual time of the
// align stage (which credits up to CoresPerNode-way thread speedup) next to
// the wall time of the simulation.
func BenchmarkAlignBatch(b *testing.B) {
	data, err := GenerateMetaclustLike(150, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("t%d", threads), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Align = AlignSW // heaviest aligner: the batching target
			cfg.Threads = threads
			for i := 0; i < b.N; i++ {
				res, err := BuildGraph(data.Records, 4, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Sections["align"]*1e6, "virtual_align_us")
				b.ReportMetric(res.Time*1e6, "virtual_total_us")
			}
		})
	}
}

// BenchmarkPipelineBlocked measures the memory-bounded wave pipeline across
// block counts: wall time of the simulation (ns/op) next to the virtual
// total and the per-rank peak of live matrix bytes, so the trajectory of
// the memory-vs-blocks tradeoff is tracked across PRs. The PSG is identical
// for every block count by construction.
func BenchmarkPipelineBlocked(b *testing.B) {
	data, err := GenerateMetaclustLike(150, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, blocks := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("b%d", blocks), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.CommonKmerThreshold = 1
			cfg.Threads = 4
			cfg.Blocks = blocks
			for i := 0; i < b.N; i++ {
				res, err := BuildGraph(data.Records, 16, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.PeakBytes), "peak_bytes")
				b.ReportMetric(res.Time*1e6, "virtual_total_us")
			}
		})
	}
}

// BenchmarkBuildGraphEndToEnd measures the whole public-API path on a
// small dataset (wall time of the simulation itself, not virtual time).
func BenchmarkBuildGraphEndToEnd(b *testing.B) {
	data, err := GenerateScopeLike(8, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := BuildGraph(data.Records, 16, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Edges)), "edges")
	}
}

// BenchmarkAblationOverlap isolates the overlapped vs blocking sequence
// exchange and reports the virtual wait time of each.
func BenchmarkAblationOverlap(b *testing.B) {
	data, err := GenerateMetaclustLike(200, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, blocking := range []bool{false, true} {
		name := "overlapped"
		if blocking {
			name = "blocking"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.CommonKmerThreshold = 1
			cfg.BlockingExchange = blocking
			for i := 0; i < b.N; i++ {
				res, err := BuildGraph(data.Records, 16, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Sections["wait"]*1e6, "virtual_wait_us")
				b.ReportMetric(res.Time*1e6, "virtual_total_us")
			}
		})
	}
}

// BenchmarkAblationTriangle isolates the Fig. 11 computation-to-data
// assignment against the naive idle-lower-grid strawman.
func BenchmarkAblationTriangle(b *testing.B) {
	data, err := GenerateMetaclustLike(200, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, naive := range []bool{false, true} {
		name := "perBlockTriangles"
		if naive {
			name = "naiveIdleProcesses"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NaiveTriangle = naive
			for i := 0; i < b.N; i++ {
				res, err := BuildGraph(data.Records, 16, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Sections["align"]*1e6, "virtual_align_us")
			}
		})
	}
}
