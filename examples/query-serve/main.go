// Query serving: build a persistent index from a synthetic protein
// database once, then answer query batches against it — cold (artifacts
// read from disk), warm (resident blocks reused) and cached (repeat
// queries answered from the result cache without running the cluster).
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	// The database: a deterministic SCOPe-like dataset, 8 families.
	data, err := pastis.GenerateScopeLike(8, 17)
	if err != nil {
		log.Fatal(err)
	}
	db := data.Records
	fmt.Printf("database: %d sequences in %d families\n", len(db), data.NumFam)

	// --- build once -----------------------------------------------------
	// Everything that depends only on the database — the k-mer matrix Aᵀ,
	// the substitute expansion (AS)ᵀ, the sequences — is computed on the
	// simulated cluster and persisted, one checksummed artifact per rank plus a manifest.
	dir, err := os.MkdirTemp("", "pastis-index")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := pastis.DefaultConfig()
	cfg.SubstituteKmers = 10
	cfg.CommonKmerThreshold = 1

	info, err := pastis.BuildIndex(db, 16, cfg, dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d sequences, %d bytes on disk, built in %.3g virtual seconds on %d nodes\n",
		info.Sequences, info.Bytes, info.Time, info.Nodes)

	// --- serve many -----------------------------------------------------
	// OpenIndex reads only the manifest; the per-rank artifacts are loaded
	// on the first batch and stay resident for every batch after it. The
	// build-time parameters (k, subs, maxfreq) come from the index;
	// alignment knobs remain free per batch.
	eng, err := pastis.OpenIndex(dir)
	if err != nil {
		log.Fatal(err)
	}
	qcfg := eng.Configure(pastis.DefaultConfig())
	qcfg.CommonKmerThreshold = 1

	// Batch 1 (cold): a handful of database members — each should at
	// least find itself, plus its family.
	batch1 := db[:4]
	res1, err := eng.Query(batch1, qcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch 1 (cold): %d queries -> %d hits, %d computed / %d cached, %.3g virtual seconds\n",
		len(batch1), len(res1.Hits), res1.CacheMisses, res1.CacheHits, res1.Time)
	for _, h := range res1.Hits[:min(5, len(res1.Hits))] {
		fmt.Printf("  %-12s -> %-12s weight %.3f identity %.3f\n",
			h.QueryID, h.TargetID, h.Weight, h.Ident)
	}

	// Batch 2 (warm + partly cached): two repeats from batch 1 plus two
	// new queries. The repeats are served from the result cache; only the
	// new queries run through the pipeline, against the resident blocks.
	batch2 := append(append([]pastis.Record{}, batch1[:2]...), db[10], db[11])
	res2, err := eng.Query(batch2, qcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch 2 (warm): %d queries -> %d hits, %d computed / %d cached, %.3g virtual seconds\n",
		len(batch2), len(res2.Hits), res2.CacheMisses, res2.CacheHits, res2.Time)

	// Batch 3: the full repeat of batch 2. Every query is cached, so the
	// cluster never spins up — virtual time is exactly zero.
	res3, err := eng.Query(batch2, qcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch 3 (repeat): %d computed / %d cached, virtual time %g — the cluster never ran\n",
		res3.CacheMisses, res3.CacheHits, res3.Time)
}
