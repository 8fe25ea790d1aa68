package pastis

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/mpi"
	"repro/internal/wire"
)

// IndexInfo describes a persisted target index.
type IndexInfo struct {
	Dir       string
	Nodes     int     // simulated rank count the index was built (and serves) on
	Sequences int     // database size
	Stats     Stats   // build-time matrix-stage counters
	Time      float64 // virtual build makespan in seconds
	Bytes     int64   // total on-disk artifact size (all ranks + manifest)
}

// BuildIndex runs the build-once half of the pipeline — everything up to
// and including the substitute expansion — on a simulated cluster and
// persists the result in dir: one artifact per rank plus a manifest with
// the database's sequence names. Queries served from the index are
// bit-identical to BuildGraph over the same records restricted to the
// query rows, for any Threads × Blocks × transport combination.
func BuildIndex(records []Record, nodes int, cfg Config, dir string) (*IndexInfo, error) {
	return BuildIndexWithModel(records, nodes, cfg, dir, mpi.DefaultCostModel())
}

// BuildIndexWithModel is BuildIndex with custom virtual-time constants.
func BuildIndexWithModel(records []Record, nodes int, cfg Config, dir string, model CostModel) (*IndexInfo, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("pastis: empty input")
	}
	if err := CheckNodes(nodes); err != nil {
		return nil, err
	}
	data := fasta.Bytes(records, 0)
	stats, sum, err := mpi.RunLocal(context.TODO(), nodes, model, cfg.Faults, func(c *mpi.Comm) (*Stats, error) {
		owned, err := fasta.Partition(data, c.Rank(), nodes)
		if err != nil {
			return nil, err
		}
		return core.BuildIndex(c, owned, cfg, dir)
	})
	if err != nil {
		return nil, err
	}
	out := &IndexInfo{Dir: dir, Nodes: nodes, Sequences: len(records), Stats: *stats, Time: sum.Time}

	// The manifest carries what only the driver holds in one place: the
	// global name table (hits resolve targets by name) and the build
	// parameters an engine needs before it can fingerprint the rank files.
	names := wire.AppendU64(nil, uint64(len(records)))
	for _, rec := range records {
		names = wire.AppendString(names, rec.ID)
	}
	_, err = index.Save(dir, &index.File{
		Fingerprint: core.IndexFingerprint(cfg, nodes),
		Rank:        index.ManifestRank,
		Ranks:       nodes,
		Meta: map[string]uint64{
			"total":   uint64(len(records)),
			"k":       uint64(cfg.K),
			"subs":    uint64(cfg.SubstituteKmers),
			"maxfreq": uint64(cfg.MaxKmerFrequency),
		},
		Sections: []index.Section{{Name: "names", Payload: names}},
	})
	if err != nil {
		return nil, err
	}
	for rank := -1; rank < nodes; rank++ {
		st, err := os.Stat(index.Path(dir, rank))
		if err != nil {
			return nil, fmt.Errorf("pastis: index artifact: %w", err)
		}
		out.Bytes += st.Size()
	}
	return out, nil
}

// Hit is one query-vs-database match.
type Hit struct {
	Query    int    // index of the query within the batch
	QueryID  string // the query record's FASTA ID
	Target   int    // global index of the database sequence
	TargetID string // the database sequence's FASTA ID
	Weight   float64
	Ident    float64
	Cov      float64
	NS       float64
	Score    int
}

// QueryBatch is the outcome of one QueryEngine.Query call.
type QueryBatch struct {
	Hits        []Hit   // sorted by (Query, Target)
	Stats       Stats   // batch pipeline counters (zero when fully cached)
	Time        float64 // virtual batch makespan (zero when fully cached)
	CacheHits   int     // queries answered from the result cache
	CacheMisses int     // queries that ran through the pipeline
}

// QueryEngine serves query batches against a persisted index: build once
// with BuildIndex, open any number of times with OpenIndex, then call
// Query repeatedly. The first batch reads the per-rank artifacts from disk
// (cold); later batches reuse the resident matrix blocks and sequences
// (warm), and an LRU result cache keyed by query sequence content makes
// repeated queries free. Safe for use from one goroutine at a time (calls
// are serialized internally).
type QueryEngine struct {
	// Model supplies the virtual-time constants for query runs.
	Model CostModel
	// CacheCap bounds the result cache (distinct query sequences retained);
	// 0 disables caching. OpenIndex initializes it to 1024.
	CacheCap int

	dir     string
	nodes   int
	total   int
	k       int
	subs    int
	maxFreq int
	names   []string

	mu       sync.Mutex
	warm     []*core.RankData // per-rank resident state, filled on first use
	cache    resultCache
	cacheKey string // config epoch the cache entries were computed under
}

// OpenIndex opens a persisted index directory for serving. Only the
// manifest is read here; rank artifacts load on the first Query (that is
// the "cold" cost the bench suite measures).
func OpenIndex(dir string) (*QueryEngine, error) {
	f, _, err := index.Load(dir, index.ManifestRank)
	if err != nil {
		return nil, err
	}
	if f.Rank != index.ManifestRank {
		return nil, fmt.Errorf("pastis: %s is not an index manifest", index.Path(dir, index.ManifestRank))
	}
	if err := CheckNodes(f.Ranks); err != nil {
		return nil, fmt.Errorf("%s: %w", index.Path(dir, index.ManifestRank), err)
	}
	payload, ok := f.Section("names")
	if !ok {
		return nil, fmt.Errorf("pastis: index manifest missing name table")
	}
	names, err := decodeNames(payload)
	if err != nil {
		return nil, err
	}
	if uint64(len(names)) != f.Meta["total"] {
		return nil, fmt.Errorf("pastis: index manifest names %d sequences, meta says %d",
			len(names), f.Meta["total"])
	}
	e := &QueryEngine{
		Model:    mpi.DefaultCostModel(),
		CacheCap: 1024,
		dir:      dir,
		nodes:    f.Ranks,
		total:    len(names),
		k:        int(f.Meta["k"]),
		subs:     int(f.Meta["subs"]),
		maxFreq:  int(f.Meta["maxfreq"]),
		names:    names,
	}
	e.warm = make([]*core.RankData, e.nodes)
	return e, nil
}

// Nodes returns the rank count the index serves on.
func (e *QueryEngine) Nodes() int { return e.nodes }

// Sequences returns the database size.
func (e *QueryEngine) Sequences() int { return e.total }

// Configure copies the index's build-time parameters — k, substitute
// k-mers, frequency limit — into cfg. These shaped the persisted matrices
// and cannot be changed per query; everything else in cfg stays free.
func (e *QueryEngine) Configure(cfg Config) Config {
	cfg.K = e.k
	cfg.SubstituteKmers = e.subs
	cfg.MaxKmerFrequency = e.maxFreq
	return cfg
}

// Query answers one batch of queries against the index. cfg supplies the
// query-time knobs (alignment kernel, thresholds, threads, blocks,
// transport); its K, SubstituteKmers and MaxKmerFrequency must match the
// build's — they shaped the persisted matrices. Hits are keyed by batch
// position and database index, sorted by (Query, Target); a database
// sequence querying itself reports its self-hit like any other match.
func (e *QueryEngine) Query(queries []Record, cfg Config) (*QueryBatch, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("pastis: empty query batch")
	}
	if cfg.K != e.k || cfg.SubstituteKmers != e.subs || cfg.MaxKmerFrequency != e.maxFreq {
		return nil, fmt.Errorf("pastis: index built with k=%d subs=%d maxfreq=%d, queried with k=%d subs=%d maxfreq=%d",
			e.k, e.subs, e.maxFreq, cfg.K, cfg.SubstituteKmers, cfg.MaxKmerFrequency)
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	// The cache is valid only within one hit-determining config epoch: any
	// knob that changes the PSG flushes it (machine-shape knobs do not).
	epoch := core.PSGKey(cfg)
	if e.cacheKey != epoch {
		e.cache.flush()
		e.cacheKey = epoch
	}

	out := &QueryBatch{}
	keys := make([]string, len(queries))
	missOf := make(map[string]int) // cleaned sequence -> index into missRecs
	var missRecs []Record
	for i, rec := range queries {
		keys[i] = string(alphabet.Clean(rec.Seq))
		if e.CacheCap > 0 {
			if _, ok := e.cache.get(keys[i]); ok {
				out.CacheHits++
				continue
			}
		}
		if _, dup := missOf[keys[i]]; dup {
			out.CacheHits++ // answered by this batch's own run, no extra work
			continue
		}
		missOf[keys[i]] = len(missRecs)
		missRecs = append(missRecs, rec)
	}
	out.CacheMisses = len(missRecs)

	// Run the pipeline over the misses only; a fully-cached batch skips the
	// cluster entirely.
	fresh := make(map[string][]Hit, len(missRecs))
	if len(missRecs) > 0 {
		data := fasta.Bytes(missRecs, 0)
		qr, sum, err := mpi.RunLocal(context.TODO(), e.nodes, e.Model, cfg.Faults, func(c *mpi.Comm) (*core.Result, error) {
			rd := e.warm[c.Rank()]
			var coldBytes int64
			if rd == nil {
				var err error
				if rd, err = core.LoadRankData(e.dir, c.Rank(), e.nodes, cfg); err != nil {
					return nil, err
				}
				coldBytes = rd.Bytes
				e.warm[c.Rank()] = rd // each rank fills only its own slot
			}
			owned, err := fasta.Partition(data, c.Rank(), e.nodes)
			if err != nil {
				return nil, err
			}
			res, err := core.Query(c, rd, owned, cfg, coldBytes)
			if err != nil {
				return nil, err
			}
			if res.Edges, err = core.GatherEdges(c, res.Edges); err != nil {
				return nil, err
			}
			return res, nil
		})
		if err != nil {
			return nil, err
		}
		out.Stats, out.Time = qr.Stats, sum.Time
		for _, rec := range missRecs {
			fresh[string(alphabet.Clean(rec.Seq))] = nil // record even hitless queries
		}
		for _, ed := range qr.Edges {
			key := string(alphabet.Clean(missRecs[ed.R].Seq))
			tgt := int(ed.C)
			fresh[key] = append(fresh[key], Hit{
				Target: tgt, TargetID: e.names[tgt],
				Weight: ed.Weight, Ident: ed.Ident, Cov: ed.Cov, NS: ed.NS, Score: ed.Score,
			})
		}
		if e.CacheCap > 0 {
			for key, hits := range fresh {
				e.cache.put(key, hits, e.CacheCap)
			}
		}
	}

	// Assemble the batch in query order from cache entries and fresh runs.
	for i, rec := range queries {
		var hits []Hit
		if h, ok := fresh[keys[i]]; ok {
			hits = h
		} else if h, ok := e.cache.get(keys[i]); ok {
			hits = h
		} else {
			return nil, fmt.Errorf("pastis: internal: query %d resolved neither fresh nor cached", i)
		}
		for _, h := range hits {
			h.Query, h.QueryID = i, rec.ID
			out.Hits = append(out.Hits, h)
		}
	}
	sort.Slice(out.Hits, func(i, j int) bool {
		if out.Hits[i].Query != out.Hits[j].Query {
			return out.Hits[i].Query < out.Hits[j].Query
		}
		return out.Hits[i].Target < out.Hits[j].Target
	})
	return out, nil
}

// resultCache is a small LRU keyed by cleaned query sequence. Hits are
// stored without their batch-position fields (those are per-call).
type resultCache struct {
	ll *list.List // front = most recently used
	m  map[string]*list.Element
}

type cacheEntry struct {
	key  string
	hits []Hit
}

func (c *resultCache) get(key string) ([]Hit, bool) {
	if c.m == nil {
		return nil, false
	}
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).hits, true
}

func (c *resultCache) put(key string, hits []Hit, cap int) {
	if c.m == nil {
		c.m = make(map[string]*list.Element)
		c.ll = list.New()
	}
	if el, ok := c.m[key]; ok {
		el.Value.(*cacheEntry).hits = hits
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, hits: hits})
	for c.ll.Len() > cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) flush() {
	c.m = nil
	c.ll = nil
}

func decodeNames(buf []byte) ([]string, error) {
	r := wire.NewReader(buf)
	out := make([]string, r.Count(8))
	for i := range out {
		out[i] = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("pastis: name table: %w", err)
	}
	return out, nil
}
