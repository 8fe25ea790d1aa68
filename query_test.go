package pastis

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/mpi"
)

// pairKey normalizes an edge or hit to the all-vs-all pair space.
type pairKey struct{ lo, hi int }

type pairVal struct {
	Weight, Ident, Cov, NS float64
	Score                  int
}

// queryDiffCase runs BuildGraph over the whole dataset and BuildIndex +
// Query over the same data with every 3rd record as the query batch, then
// asserts the query hits are bit-identical to the all-vs-all edges
// restricted to pairs touching a query.
func queryDiffCase(t *testing.T, cfg Config, nodes int) {
	t.Helper()
	data, err := GenerateScopeLike(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	recs := data.Records

	full, err := BuildGraph(recs, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var queries []Record
	var dbIdx []int // batch position -> database global index
	for i := 0; i < len(recs); i += 3 {
		queries = append(queries, recs[i])
		dbIdx = append(dbIdx, i)
	}
	isQuery := make(map[int]bool, len(dbIdx))
	for _, di := range dbIdx {
		isQuery[di] = true
	}

	dir := t.TempDir()
	if _, err := BuildIndex(recs, nodes, cfg, dir); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.Query(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Expected: all-vs-all edges with a query endpoint.
	want := make(map[pairKey]pairVal)
	for _, e := range full.Edges {
		if isQuery[int(e.R)] || isQuery[int(e.C)] {
			want[pairKey{int(e.R), int(e.C)}] = pairVal{e.Weight, e.Ident, e.Cov, e.NS, e.Score}
		}
	}

	// Actual: hits mapped into pair space. Self-hits are a query matching
	// its own database row — present by design in the serving API, absent
	// from the all-vs-all graph. A pair of two queries appears in both
	// batch rows; both must carry identical values.
	got := make(map[pairKey]pairVal)
	for _, h := range batch.Hits {
		q := dbIdx[h.Query]
		if q == h.Target {
			continue // self-hit
		}
		k := pairKey{q, h.Target}
		if k.lo > k.hi {
			k.lo, k.hi = k.hi, k.lo
		}
		v := pairVal{h.Weight, h.Ident, h.Cov, h.NS, h.Score}
		if prev, dup := got[k]; dup && prev != v {
			t.Fatalf("pair (%d,%d) seen from both query rows with different values: %+v vs %+v",
				k.lo, k.hi, prev, v)
		}
		got[k] = v
	}

	if len(got) != len(want) {
		t.Fatalf("query path found %d pairs, all-vs-all restricted to queries has %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("pair (%d,%d) missing from query results", k.lo, k.hi)
		}
		if g != w {
			t.Fatalf("pair (%d,%d) differs: query %+v, all-vs-all %+v", k.lo, k.hi, g, w)
		}
	}
}

// TestQueryMatchesAllVsAll sweeps the bit-identity differential across
// thread counts, wave counts and both transports, in exact and substitute
// modes (ISSUE 9 acceptance criterion).
func TestQueryMatchesAllVsAll(t *testing.T) {
	for _, subs := range []int{0, 10} {
		for _, threads := range []int{1, 3} {
			for _, blocks := range []int{1, 3} {
				for _, transport := range []string{"shared", "codec"} {
					name := fmt.Sprintf("subs=%d/t=%d/b=%d/%s", subs, threads, blocks, transport)
					t.Run(name, func(t *testing.T) {
						cfg := DefaultConfig()
						cfg.SubstituteKmers = subs
						cfg.Threads = threads
						cfg.Blocks = blocks
						cfg.Transport = transport
						if subs > 0 {
							cfg.CommonKmerThreshold = 1
						}
						queryDiffCase(t, cfg, 4)
					})
				}
			}
		}
	}
}

// TestQueryMatchesAllVsAllFiltered exercises the persisted banned-k-mer
// list: the query panel must replay the database's frequency pre-filter.
func TestQueryMatchesAllVsAllFiltered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 10
	cfg.MaxKmerFrequency = 8
	cfg.CommonKmerThreshold = 1
	queryDiffCase(t, cfg, 4)
}

// TestQueryCacheIdentity: repeating a batch must answer entirely from the
// result cache with bit-identical hits, and a changed alignment config must
// flush the cache rather than serve stale results.
func TestQueryCacheIdentity(t *testing.T) {
	data, err := GenerateScopeLike(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	recs := data.Records
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 10
	cfg.CommonKmerThreshold = 1

	dir := t.TempDir()
	if _, err := BuildIndex(recs, 4, cfg, dir); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	queries := recs[:6]

	first, err := eng.Query(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses == 0 {
		t.Fatal("first batch reported no cache misses")
	}
	repeat, err := eng.Query(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repeat.CacheHits != len(queries) || repeat.CacheMisses != 0 {
		t.Fatalf("repeat batch: %d hits / %d misses, want %d / 0",
			repeat.CacheHits, repeat.CacheMisses, len(queries))
	}
	if repeat.Time != 0 {
		t.Fatalf("fully-cached batch reported virtual time %g", repeat.Time)
	}
	if len(repeat.Hits) != len(first.Hits) {
		t.Fatalf("cached batch has %d hits, first had %d", len(repeat.Hits), len(first.Hits))
	}
	for i := range first.Hits {
		if first.Hits[i] != repeat.Hits[i] {
			t.Fatalf("hit %d drifted through the cache: %+v vs %+v", i, first.Hits[i], repeat.Hits[i])
		}
	}

	// A PSG-relevant knob change must flush, not serve stale values.
	stricter := cfg
	stricter.MinIdentity = 0.9
	third, err := eng.Query(queries, stricter)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHits != 0 {
		t.Fatalf("config change still served %d cached queries", third.CacheHits)
	}
	for _, h := range third.Hits {
		if h.Ident < 0.9 {
			t.Fatalf("stale threshold: hit %+v below MinIdentity 0.9", h)
		}
	}

	// Disabling the cache must fall back to full recompute, bit-identically.
	eng.CacheCap = 0
	uncached, err := eng.Query(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uncached.CacheHits != 0 {
		t.Fatalf("disabled cache still served %d queries", uncached.CacheHits)
	}
	if len(uncached.Hits) != len(first.Hits) {
		t.Fatalf("uncached rerun has %d hits, first had %d", len(uncached.Hits), len(first.Hits))
	}
	for i := range first.Hits {
		if first.Hits[i] != uncached.Hits[i] {
			t.Fatalf("hit %d drifted on uncached rerun: %+v vs %+v", i, first.Hits[i], uncached.Hits[i])
		}
	}
}

// A substitute index holds no neighbor lists — the query path searches — and
// an artifact from before that, which carries them in an "nbr" section, still
// opens and answers the same: the section is not read, whatever it holds.
func TestIndexCarriesNoNeighborTable(t *testing.T) {
	data, err := GenerateScopeLike(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	recs := data.Records
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 10
	cfg.CommonKmerThreshold = 1
	const nodes = 4

	dir := t.TempDir()
	if _, err := BuildIndex(recs, nodes, cfg, dir); err != nil {
		t.Fatal(err)
	}
	query := func() []Hit {
		t.Helper()
		eng, err := OpenIndex(dir)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := eng.Query(recs[:6], cfg)
		if err != nil {
			t.Fatal(err)
		}
		return batch.Hits
	}
	want := query()
	if len(want) == 0 {
		t.Fatal("no hits to compare")
	}

	for rank := 0; rank < nodes; rank++ {
		f, _, err := index.Load(dir, rank)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.Section("ast"); !ok {
			t.Fatalf("rank %d: substitute index without an (AS)ᵀ block", rank)
		}
		if _, ok := f.Section("nbr"); ok {
			t.Fatalf("rank %d: index still carries a neighbor table", rank)
		}
		f.Sections = append(f.Sections, index.Section{Name: "nbr", Payload: []byte("not a neighbor table")})
		if _, err := index.Save(dir, f); err != nil {
			t.Fatal(err)
		}
	}
	if got := query(); !slices.Equal(got, want) {
		t.Fatalf("an artifact with an nbr section answers differently: %d hits, want %d", len(got), len(want))
	}
}

// A rank count that cannot form the process grid is an error at every entry
// point that takes one — from the caller, or from an index manifest — never
// a panic in cluster construction.
func TestBadNodeCountIsAnError(t *testing.T) {
	data, err := GenerateScopeLike(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := BuildIndex(data.Records, 1, DefaultConfig(), dir); err != nil {
		t.Fatal(err)
	}
	manifest, _, err := index.Load(dir, index.ManifestRank)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{0, -1, -4, 3, 8} {
		if _, err := BuildGraph(data.Records, nodes, DefaultConfig()); err == nil {
			t.Errorf("BuildGraph on %d nodes succeeded", nodes)
		}
		if _, err := BuildIndex(data.Records, nodes, DefaultConfig(), t.TempDir()); err == nil {
			t.Errorf("BuildIndex on %d nodes succeeded", nodes)
		}
		manifest.Ranks = nodes
		if _, err := index.Save(dir, manifest); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenIndex(dir); err == nil {
			t.Errorf("OpenIndex accepted a manifest written on %d ranks", nodes)
		}
	}
}

// Config.Faults reaches every entry point through the one launcher:
// BuildIndex and QueryEngine.Query used to build their clusters privately
// and never armed it, so a plan was silently a fault-free run. A one-shot
// crash must fail both with ErrRankCrashed (and leave the engine serving);
// a recoverable plan must cost virtual time and change nothing else — not a
// byte of a rank file, not a hit, with the result cache on or off.
func TestIndexAndQueryArmFaults(t *testing.T) {
	data, err := GenerateScopeLike(5, 11)
	if err != nil {
		t.Fatal(err)
	}
	recs, queries := data.Records, data.Records[:6]
	const nodes = 4
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 10
	cfg.CommonKmerThreshold = 1
	crash, chaos := cfg, cfg
	crash.Faults = &FaultPlan{RankCrash: map[int]int{1: 2}}
	chaos.Faults = &FaultPlan{Seed: 17, DropProb: 0.1, CorruptProb: 0.05, DelayProb: 0.1}

	dir := t.TempDir()
	clean, err := BuildIndex(recs, nodes, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndex(recs, nodes, crash, t.TempDir()); !errors.Is(err, mpi.ErrRankCrashed) {
		t.Errorf("BuildIndex under a rank-crash plan: %v, want ErrRankCrashed", err)
	}
	chaosDir := t.TempDir()
	faulty, err := BuildIndex(recs, nodes, chaos, chaosDir)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Time <= clean.Time {
		t.Errorf("recoverable plan cost BuildIndex no virtual time (%g vs %g): not armed", faulty.Time, clean.Time)
	}
	for rank := index.ManifestRank; rank < nodes; rank++ {
		want, err := os.ReadFile(index.Path(dir, rank))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(index.Path(chaosDir, rank))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d index file differs under a recoverable fault plan", rank)
		}
	}

	open := func() *QueryEngine {
		t.Helper()
		eng, err := OpenIndex(dir)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ref, err := open().Query(queries, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameHits := func(what string, got *QueryBatch) {
		t.Helper()
		if !slices.Equal(got.Hits, ref.Hits) {
			t.Errorf("%s: %d hits differ from the fault-free batch's %d", what, len(got.Hits), len(ref.Hits))
		}
	}

	eng := open()
	if _, err := eng.Query(queries, crash); !errors.Is(err, mpi.ErrRankCrashed) {
		t.Errorf("Query under a rank-crash plan: %v, want ErrRankCrashed", err)
	}
	next, err := eng.Query(queries, cfg)
	if err != nil {
		t.Fatalf("batch after the crashed one: %v", err)
	}
	sameHits("batch after the crashed one", next)

	for _, cacheCap := range []int{1024, 0} {
		eng := open()
		eng.CacheCap = cacheCap
		got, err := eng.Query(queries, chaos)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(fmt.Sprintf("recoverable plan, CacheCap %d", cacheCap), got)
		if got.Time <= ref.Time {
			t.Errorf("CacheCap %d: recoverable plan cost Query no virtual time (%g vs %g): not armed",
				cacheCap, got.Time, ref.Time)
		}
	}
}
