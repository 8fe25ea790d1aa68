package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	pastis "repro"
	"repro/internal/mpi"
	"repro/internal/subkmer"
)

// ranks is the simulated cluster size of every workload: a 2x2 grid, the
// smallest on which SUMMA broadcasts along both a row and a column.
const ranks = 4

// A workload is one set of inputs and one configuration. An op is one whole
// all-vs-all run, or one query batch against a warm engine. All are closed
// loops with one client: the next op starts when the previous one returned.
type workload struct {
	Name string
	Why  string // the one-line rationale, as in BENCHMARK.json

	N     int // sequences; the database size for a query workload
	Smoke int // N at -scale smoke

	Config func() pastis.Config
	// ClearSubs empties the substitute k-mer cache before every op: a
	// command-line user pays the table build on every run.
	ClearSubs bool
	// Batch > 0 makes the op a batch of this many database members queried
	// against a persistent index; CacheCap is the engine's result cache size.
	Batch    int
	CacheCap int
	MinOps   int // timed ops before the window may close
}

func baseConfig() pastis.Config {
	cfg := pastis.DefaultConfig() // k=6, Threads=1
	cfg.CommonKmerThreshold = 1
	return cfg
}

// ungappedNS selects the cheapest kernel with the paper's normalized-score
// weights, which keep every pair that scores above zero. Under the default
// ANI weights an ungapped extension fails the 70% coverage cut on most pairs
// that carry an indel: recall is 0.24-0.39 depending on the seed, too loose
// a number to put a bound on. With NS it is 0.96-0.99 and 0.87-0.89.
func ungappedNS(cfg *pastis.Config) {
	cfg.Align = pastis.AlignUngapped
	cfg.Weight = pastis.WeightNS
}

// The sizes are fixed: a later change is compared with this one on equal
// inputs. They are as large as the driver's time cap lets them be (92 runs
// and two builds in 3420 s, three set-ups in every untraced run); see
// README.md for the probe runs behind them.
var workloads = []workload{
	{
		Name: "avsa_exact_xd",
		Why:  "exact k-mers, x-drop: alignment kernel is most of the wall, matrix and comm are small",
		N:    600, Smoke: 120, MinOps: 5,
		Config: baseConfig,
	},
	{
		Name: "avsa_subs_ug",
		Why:  "10 substitute k-mers, ungapped, NS weights: substitute table, SpGEMM, allocation; bypasses alignment kernels",
		N:    250, Smoke: 60, MinOps: 5, ClearSubs: true,
		Config: func() pastis.Config {
			cfg := baseConfig()
			cfg.SubstituteKmers = 10
			cfg.CommonKmerThreshold = 3
			ungappedNS(&cfg)
			return cfg
		},
	},
	{
		Name: "avsa_blocked_tcp",
		Why:  "4 waves over loopback tcp, ungapped, NS weights: block serialization, socket relay and re-broadcast dominate",
		N:    2000, Smoke: 150, MinOps: 5,
		Config: func() pastis.Config {
			cfg := baseConfig()
			ungappedNS(&cfg)
			cfg.Blocks = 4
			cfg.Transport = "tcp"
			return cfg
		},
	},
	{
		Name: "query_warm_b4",
		Why:  "batches of 4 against a warm index: many tiny products; a third is per-batch fixed cost, so set-up traded for speed shows",
		N:    600, Smoke: 120, MinOps: 20, Batch: 4, CacheCap: 64,
		Config: baseConfig,
	},
}

// warmOps is how many ops set-up runs before the timed window: one whole
// run, or ten batches, whose cost varies with the families they touch.
func (w *workload) warmOps() int {
	if w.Batch > 0 {
		return 10
	}
	return 1
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q", name)
}

// allVsAll runs the whole pipeline once on the simulated cluster and, for
// cfg.Transport "tcp", over real loopback sockets. stats, when not nil,
// receives rank 0's socket ledger of a tcp run.
func allVsAll(records []pastis.Record, nodes int, cfg pastis.Config, stats *mpi.TCPStats) (*pastis.Result, error) {
	if cfg.Transport != "tcp" {
		return pastis.BuildGraph(records, nodes, cfg)
	}
	var out *pastis.Result
	var root *mpi.Cluster
	err := mpi.RunTCPLocal(nodes, mpi.DefaultCostModel(),
		func(rank int, cl *mpi.Cluster) {
			if rank == 0 {
				root = cl
			}
		},
		func(c *mpi.Comm) error {
			res, err := pastis.RunRank(c, records, cfg)
			if err == nil && c.Rank() == 0 {
				out = res
			}
			return err
		})
	if err != nil {
		return nil, err
	}
	if stats != nil && root != nil {
		*stats, _ = root.TCPStats()
	}
	return out, nil
}

// A fixture is everything set-up produces: the inputs, the reference every
// op is checked against, and for a query workload the warm engine.
type fixture struct {
	w    *workload
	cfg  pastis.Config
	data *pastis.Dataset
	ops  int // ops run so far; a query workload's next batch

	// All-vs-all workloads: the reference graph and its digest.
	refEdges []pastis.Edge
	refFP    uint64
	last     *pastis.Result // the most recent op's result, for its counters
	lastTCP  mpi.TCPStats   // and rank 0's socket ledger, when it ran over tcp

	// Query workloads: the reference hits of every database member (own row
	// dropped), the index directory and the warm engine.
	refHits [][]pastis.Hit
	dir     string
	eng     *pastis.QueryEngine
	order   []int // seeded shuffle of the database; batch i is order[i*Batch:...]

	warmSeconds float64 // the slowest warm-up op; ten times it is the per-op deadline
}

// setUp generates the inputs from the seed, computes the reference, builds
// and opens the index of a query workload, and runs the warm-up ops.
func setUp(w *workload, n int, seed int64, tmpRoot string) (*fixture, error) {
	data, err := generate(n, seed)
	if err != nil {
		return nil, err
	}
	f := &fixture{w: w, cfg: w.Config(), data: data}
	if w.Batch > 0 {
		err = f.setUpQuery(seed, tmpRoot)
	} else {
		err = f.setUpAllVsAll()
	}
	if err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < w.warmOps(); i++ {
		t0 := time.Now()
		if err := f.op(); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		f.warmSeconds = max(f.warmSeconds, time.Since(t0).Seconds())
	}
	return f, nil
}

// referenceConfig is the other road to the same output: the byte codec
// instead of shared references (or sockets), all cores as threads instead of
// one, three waves instead of one or four. The rank count stays: the graph
// is not invariant under it (README.md, "What the oracle found").
func referenceConfig(cfg pastis.Config) pastis.Config {
	cfg.Transport, cfg.Blocks, cfg.Threads = "codec", 3, runtime.NumCPU()
	return cfg
}

func (f *fixture) setUpAllVsAll() error {
	if f.w.ClearSubs {
		subkmer.ClearCache()
	}
	ref, err := allVsAll(f.data.Records, ranks, referenceConfig(f.cfg), nil)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	f.refEdges, f.refFP = ref.Edges, edgeDigest(ref.Edges)
	return nil
}

// setUpQuery builds the index, the reference and the warm engine. The
// reference is the whole database sent as one batch to a second engine on
// the same index: a batch of ten must return exactly its ten rows of that.
// (The all-vs-all graph is not the reference: it aligns each pair lower
// index first, a query aligns query first, and the two can differ; see
// README.md, "What the oracle found".)
func (f *fixture) setUpQuery(seed int64, tmpRoot string) error {
	recs := f.data.Records
	var err error
	if f.dir, err = os.MkdirTemp(tmpRoot, "index-"); err != nil {
		return err
	}
	if _, err := pastis.BuildIndex(recs, ranks, f.cfg, f.dir); err != nil {
		return fmt.Errorf("build index: %w", err)
	}

	refEng, err := pastis.OpenIndex(f.dir)
	if err != nil {
		return fmt.Errorf("open index: %w", err)
	}
	refEng.CacheCap = 0
	ref, err := refEng.Query(recs, refEng.Configure(referenceConfig(f.cfg)))
	if err != nil {
		return fmt.Errorf("reference query: %w", err)
	}
	f.refHits = make([][]pastis.Hit, len(recs))
	for _, h := range ref.Hits { // sorted by (Query, Target)
		if h.Query != h.Target {
			f.refHits[h.Query] = append(f.refHits[h.Query], h)
		}
	}

	if f.eng, err = pastis.OpenIndex(f.dir); err != nil {
		return fmt.Errorf("open index: %w", err)
	}
	f.eng.CacheCap = f.w.CacheCap
	f.cfg = f.eng.Configure(f.cfg)
	f.order = rand.New(rand.NewSource(seed)).Perm(len(recs))
	if err := f.op(); err != nil { // the cold batch, which loads the rank artifacts
		return fmt.Errorf("cold batch: %w", err)
	}
	return nil
}

func (f *fixture) close() {
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// batch returns the database indices of batch i. Batches cycle through the
// shuffled database; the engine's result cache is smaller than the database,
// so a member has been evicted long before its turn comes again.
func (f *fixture) batch(i int) []int {
	i %= len(f.order) / f.w.Batch
	return f.order[i*f.w.Batch : (i+1)*f.w.Batch]
}

// quality scores the reference, which every op that passed its check
// reproduced, against the generator's family labels.
func (f *fixture) quality() (recall, precision float64) {
	var found [][2]int
	for _, e := range f.refEdges {
		found = append(found, [2]int{int(e.R), int(e.C)})
	}
	for q, hits := range f.refHits {
		for _, h := range hits {
			found = append(found, [2]int{q, h.Target})
		}
	}
	sides := 1
	if f.refHits != nil {
		sides = 2 // a full pass of batches sees each pair from either side
	}
	return pairQuality(f.data.Families, found, sides)
}

// seqsPerOp is the work one op completes, for seqs_per_s.
func (f *fixture) seqsPerOp() int {
	if f.w.Batch > 0 {
		return f.w.Batch
	}
	return len(f.data.Records)
}

// op runs the next op and checks its output against the reference.
func (f *fixture) op() error {
	i := f.ops
	f.ops++
	if f.w.Batch > 0 {
		_, err := f.queryBatch(f.eng, f.batch(i), f.cfg)
		return err
	}
	if f.w.ClearSubs {
		subkmer.ClearCache()
	}
	res, err := allVsAll(f.data.Records, ranks, f.cfg, &f.lastTCP)
	if err != nil {
		return err
	}
	f.last = res
	return f.checkGraph(res)
}

func (f *fixture) checkGraph(res *pastis.Result) error {
	if got := edgeDigest(res.Edges); got != f.refFP {
		return fmt.Errorf("output check: %d edges digest %016x, reference has %d edges digest %016x",
			len(res.Edges), got, len(f.refEdges), f.refFP)
	}
	return nil
}

// queryBatch sends the given database members as one batch and checks the
// hits against the reference rows.
func (f *fixture) queryBatch(eng *pastis.QueryEngine, members []int, cfg pastis.Config) (*pastis.QueryBatch, error) {
	queries := make([]pastis.Record, len(members))
	for i, g := range members {
		queries[i] = f.data.Records[g]
	}
	res, err := eng.Query(queries, cfg)
	if err != nil {
		return nil, err
	}
	if got, want := hitDigest(members, res.Hits), expectedHitDigest(members, f.refHits); got != want {
		return nil, fmt.Errorf("output check: batch %v digest %016x, reference rows digest %016x", members, got, want)
	}
	return res, nil
}
