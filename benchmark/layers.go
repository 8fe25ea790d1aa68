package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	pastis "repro"
	"repro/internal/align"
	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/dmat"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/kmer"
	"repro/internal/mpi"
	"repro/internal/parallel"
	"repro/internal/scoring"
	"repro/internal/seqstore"
	"repro/internal/spmat"
	"repro/internal/subkmer"
)

// Layer probes: the traced run calls each module's public functions on the
// workload's own data, one span per call, and turns the spans and the counts
// the functions return into the per-layer metrics. Nothing inside the
// program is instrumented; a whole op is one span, and what a layer costs
// inside an op is estimated by whole runs with one knob flipped (core.*).

// probeSizes says how much each probe measures.
type probeSizes struct {
	pairs   int // reference pairs the alignment kernels are timed on
	kmers   int // distinct k-mers subkmer.Find is timed on
	batches int // warm batches of the index probe
	rounds  int // collective rounds per cluster
	reps    int // whole runs per flipped configuration
}

var (
	fullProbes  = probeSizes{pairs: 500, kmers: 20000, batches: 30, rounds: 10, reps: 2}
	smokeProbes = probeSizes{pairs: 40, kmers: 500, batches: 4, rounds: 2, reps: 1}
)

// usage is a snapshot of the process counters runtime.* metrics are taken
// from, as deltas over the timed window.
type usage struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64 // runtime/metrics CPU classes, seconds
	cpu                 float64 // getrusage user+system seconds
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	u := usage{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, cpu: cpuSeconds()}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		u.totalCPU = samples[1].Value.Float64()
	}
	return u
}

type prober struct {
	fx  *fixture
	win window
	tr  *tracer
	put func(name, unit string, v float64)

	recs  []pastis.Record
	cfg   pastis.Config // the workload's configuration
	codes [][]alphabet.Code
	tmp   string
	probeSizes

	a        *spmat.DCSC[int32]    // the k-mer matrix, from the spmat probe
	triples  []spmat.Triple[int32] // its triples
	distinct []kmer.ID             // first distinct k-mers
	payload  []byte                // a quarter of A's encoding: one rank's block
}

func layerProbes(fx *fixture, win window, tr *tracer, sizes probeSizes, tmp string, put func(name, unit string, v float64)) error {
	p := &prober{fx: fx, win: win, tr: tr, put: put, recs: fx.data.Records, cfg: fx.w.Config(), tmp: tmp, probeSizes: sizes}
	for _, r := range p.recs {
		codes, err := alphabet.EncodeSeq(alphabet.Clean(r.Seq))
		if err != nil {
			return err
		}
		p.codes = append(p.codes, codes)
	}
	for _, layer := range []struct {
		name string
		fn   func() error
	}{
		{"probe.runtime", p.runtimeLayer},
		{"probe.input", p.inputLayers},
		{"probe.spmat", p.spmatLayer},
		{"probe.subkmer", p.subkmerLayer},
		{"probe.align", p.alignLayer},
		{"probe.dmat", p.dmatLayer},
		{"probe.mpi", p.mpiLayer},
		{"probe.core", p.coreLayer},
		{"probe.index", p.indexLayer},
	} {
		var err error
		tr.span(layer.name, func() { err = layer.fn() })
		if err != nil {
			return fmt.Errorf("%s: %w", layer.name, err)
		}
	}
	return nil
}

// timed runs fn reps times, each in a span, and returns the median seconds.
func (p *prober) timed(name string, reps int, fn func() error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		var err error
		secs = append(secs, p.tr.span(name, func() { err = fn() }))
		if err != nil {
			return 0, err
		}
	}
	return median(secs), nil
}

// runtimeLayer: what the timed window cost the Go runtime, per op, and what
// wrapping every other op in a span cost.
func (p *prober) runtimeLayer() error {
	ops := float64(p.win.attempted)
	u0, u1 := p.win.before, p.win.after
	p.put("runtime.alloc_mb_per_op", "MB", float64(u1.allocBytes-u0.allocBytes)/1e6/ops)
	p.put("runtime.allocs_per_op", "count", float64(u1.mallocs-u0.mallocs)/ops)
	gcShare := 0.0
	if total := u1.totalCPU - u0.totalCPU; total > 0 {
		gcShare = (u1.gcCPU - u0.gcCPU) / total
	}
	p.put("runtime.gc_cpu_share", "ratio", gcShare)
	p.put("runtime.cpu_s_per_op", "s", (u1.cpu-u0.cpu)/ops)
	// Ops alternate between wrapped in a span and not; neighbours share the
	// machine's mood, so the ratio is taken pair by pair.
	var ratios []float64
	for i := 0; i < min(len(p.win.traced), len(p.win.untraced)); i++ {
		ratios = append(ratios, p.win.traced[i]/p.win.untraced[i])
	}
	p.put("trace.overhead_share", "ratio", median(ratios)-1)
	return nil
}

// inputLayers: fasta, kmer and seqstore, each over the whole input.
func (p *prober) inputLayers() error {
	var data []byte
	var owned [][]fasta.Record
	secs, err := p.timed("fasta.parse", 5, func() error {
		data = fasta.Bytes(p.recs, 0)
		owned = owned[:0]
		for _, ch := range fasta.SplitBytes(int64(len(data)), ranks) {
			recs, err := fasta.ParseChunk(data, ch.Begin, ch.End)
			if err != nil {
				return err
			}
			owned = append(owned, recs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("fasta.parse.mb_per_s", "MB/s", float64(len(data))/1e6/secs)

	var kmers int
	secs, err = p.timed("kmer.extract", 5, func() error {
		kmers = 0
		for _, codes := range p.codes {
			kmers += len(kmer.ExtractCodes(codes, p.cfg.K, true))
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("kmer.extract.mkmers_per_s", "M/s", float64(kmers)/1e6/secs)

	secs, err = p.cluster("seqstore.exchange", false, func(c *mpi.Comm, sw *stopwatch) error {
		g, err := dmat.NewGrid(c)
		if err != nil {
			return err
		}
		if err := sw.start(c); err != nil {
			return err
		}
		store, err := seqstore.Exchange(g, owned[c.Rank()])
		if err != nil {
			return err
		}
		if err := store.Wait(); err != nil {
			return err
		}
		return sw.stop(c)
	})
	if err != nil {
		return err
	}
	p.put("seqstore.exchange.mb_per_s", "MB/s", float64(fasta.TotalSeqBytes(p.recs))/1e6/secs)
	return nil
}

// kmerTriples lists A's nonzeros as core.formA builds them: one per distinct
// k-mer of a sequence, valued with its first position. It also returns the
// distinct k-mers in order of first appearance.
func kmerTriples(codes [][]alphabet.Code, k int) ([]spmat.Triple[int32], []kmer.ID) {
	var triples []spmat.Triple[int32]
	var distinct []kmer.ID
	seen := map[kmer.ID]struct{}{}
	first := map[kmer.ID]int32{}
	for row, c := range codes {
		clear(first)
		for _, km := range kmer.ExtractCodes(c, k, true) {
			if _, dup := first[km.ID]; dup {
				continue
			}
			first[km.ID] = int32(km.Pos)
			triples = append(triples, spmat.Triple[int32]{Row: spmat.Index(row), Col: spmat.Index(km.ID), Val: int32(km.Pos)})
			if _, dup := seen[km.ID]; !dup {
				seen[km.ID] = struct{}{}
				distinct = append(distinct, km.ID)
			}
		}
	}
	return triples, distinct
}

// spmatLayer: assembly, transpose and A·Aᵀ of the workload's k-mer matrix
// under the exact-match semiring, on one core.
func (p *prober) spmatLayer() error {
	p.triples, p.distinct = kmerTriples(p.codes, p.cfg.K)
	if len(p.distinct) > p.kmers {
		p.distinct = p.distinct[:p.kmers]
	}
	n, space := spmat.Index(len(p.recs)), spmat.Index(kmer.SpaceSize(p.cfg.K))
	nnz := float64(len(p.triples)) / 1e6

	secs, err := p.timed("spmat.from_triples", 3, func() error {
		ts := append([]spmat.Triple[int32](nil), p.triples...) // FromTriples sorts in place
		var err error
		p.a, err = spmat.FromTriples(n, space, ts, nil)
		return err
	})
	if err != nil {
		return err
	}
	p.put("spmat.from_triples.mnnz_per_s", "M/s", nnz/secs)

	var at *spmat.DCSC[int32]
	secs, _ = p.timed("spmat.transpose", 3, func() error {
		at = p.a.Transpose()
		return nil
	})
	p.put("spmat.transpose.mnnz_per_s", "M/s", nnz/secs)

	var stats spmat.Stats
	var mallocs uint64
	secs, err = p.timed("spmat.spgemm", 3, func() error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var err error
		_, stats, err = spmat.SpGEMM(p.a, at, core.ExactSemiring, spmat.SpGEMMOpts{})
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
		return err
	})
	if err != nil {
		return err
	}
	p.put("spmat.spgemm.mflops_per_s", "M/s", float64(stats.Flops)/1e6/secs)
	p.put("spmat.spgemm.flops", "count", float64(stats.Flops))
	p.put("spmat.spgemm.allocs_per_op", "count", float64(mallocs))
	return nil
}

// subkmerLayer: the substitute k-mer search, at the workload's m (10 where
// the workload uses exact k-mers).
func (p *prober) subkmerLayer() error {
	m := p.cfg.SubstituteKmers
	if m == 0 {
		m = 10
	}
	expense := scoring.NewExpense(scoring.BLOSUM62)
	secs, err := p.timed("subkmer.find", 1, func() error {
		for _, id := range p.distinct {
			if _, err := subkmer.Find(id, p.cfg.K, expense, m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("subkmer.find.per_s", "1/s", float64(len(p.distinct))/secs)
	return nil
}

// A probePair is one reference pair with the first exact k-mer its two
// sequences share, as the seed the overlap stage would hand the kernel.
type probePair struct {
	a, b  []alphabet.Code
	seeds []align.Seed
}

// referencePairs samples up to p.pairs pairs evenly from the reference
// and seeds each; pairs that share no exact k-mer (found through substitute
// k-mers only) are left out.
func (p *prober) referencePairs() []probePair {
	var all [][2]int
	for _, e := range p.fx.refEdges {
		all = append(all, [2]int{int(e.R), int(e.C)})
	}
	for q, hits := range p.fx.refHits {
		for _, h := range hits {
			if q < h.Target {
				all = append(all, [2]int{q, h.Target})
			}
		}
	}
	step := max(1, len(all)/p.pairs)
	var out []probePair
	pos := map[kmer.ID]int{}
	for i := 0; i < len(all) && len(out) < p.pairs; i += step {
		a, b := p.codes[all[i][0]], p.codes[all[i][1]]
		clear(pos)
		for _, km := range kmer.ExtractCodes(a, p.cfg.K, true) {
			if _, dup := pos[km.ID]; !dup {
				pos[km.ID] = km.Pos
			}
		}
		for _, km := range kmer.ExtractCodes(b, p.cfg.K, true) {
			if pa, ok := pos[km.ID]; ok {
				out = append(out, probePair{a, b, []align.Seed{{PosA: pa, PosB: km.Pos, K: p.cfg.K}}})
				break
			}
		}
	}
	return out
}

// alignLayer: every primitive kernel over the same reference pairs, cells as
// the kernels count them, and the same loop under parallel.For.
func (p *prober) alignLayer() error {
	pairs := p.referencePairs()
	if len(pairs) == 0 {
		return fmt.Errorf("no reference pair shares an exact k-mer")
	}
	params := align.Params{
		Scoring: align.Scoring{Matrix: scoring.BLOSUM62, GapOpen: p.cfg.GapOpen, GapExtend: p.cfg.GapExtend},
		XDrop:   p.cfg.XDropValue,
	}
	alignAll := func(name string, threads int) (secs float64, cells int64, err error) {
		kernels := make([]align.Kernel, parallel.Workers(threads))
		for i := range kernels {
			if kernels[i], err = align.NewKernel(name); err != nil {
				return 0, 0, err
			}
		}
		errs := make([]error, len(kernels))
		secs = p.tr.span("align."+name, func() {
			parallel.For(threads, len(pairs), func(worker, _, lo, hi int) {
				for _, pr := range pairs[lo:hi] {
					if _, err := kernels[worker].Align(pr.a, pr.b, pr.seeds, params); err != nil {
						errs[worker] = err
						return
					}
				}
			})
		})
		for i, k := range kernels {
			cells += k.CellsComputed()
			if errs[i] != nil {
				return 0, 0, errs[i]
			}
		}
		return secs, cells, nil
	}
	var xdSerial float64
	for _, name := range []string{"xd", "ug", "sw", "wfa"} {
		secs, cells, err := alignAll(name, 1)
		if err != nil {
			return err
		}
		p.put("align."+name+".mcells_per_s", "M/s", float64(cells)/1e6/secs)
		if name == "xd" {
			xdSerial = secs
			p.put("align.xd.us_per_pair", "us", secs*1e6/float64(len(pairs)))
		}
	}
	secs, _, err := alignAll("xd", runtime.NumCPU())
	if err != nil {
		return err
	}
	p.put("parallel.align.speedup", "ratio", xdSerial/secs)
	return nil
}

// A stopwatch times a phase inside a cluster run as rank 0 sees it, between
// two barriers, so that spin-up and tear-down stay outside.
type stopwatch struct{ t0, t1 time.Time }

func (s *stopwatch) mark(c *mpi.Comm, t *time.Time) error {
	if err := c.TryBarrier(); err != nil {
		return err
	}
	if c.Rank() == 0 {
		*t = time.Now()
	}
	return nil
}

func (s *stopwatch) start(c *mpi.Comm) error { return s.mark(c, &s.t0) }
func (s *stopwatch) stop(c *mpi.Comm) error  { return s.mark(c, &s.t1) }

// cluster runs body on every rank of a 4-rank cluster — in process, or over
// loopback sockets with tcp — inside a span name+".cluster", records the
// stopwatch phase as a child span called name, and returns its seconds.
func (p *prober) cluster(name string, tcp bool, body func(c *mpi.Comm, sw *stopwatch) error) (float64, error) {
	var sw stopwatch
	var err error
	p.tr.span(name+".cluster", func() {
		fn := func(c *mpi.Comm) error { return body(c, &sw) }
		if tcp {
			err = mpi.RunTCPLocal(ranks, mpi.DefaultCostModel(), nil, fn)
		} else {
			err = mpi.NewCluster(ranks, mpi.DefaultCostModel()).Run(fn)
		}
		if err == nil {
			p.tr.record(name, sw.t0, sw.t1)
		}
	})
	return sw.t1.Sub(sw.t0).Seconds(), err
}

// dmatLayer: the distributed A·Aᵀ (SUMMA) under both block transports, and
// the block codec on the whole of A.
func (p *prober) dmatLayer() error {
	n, space := spmat.Index(len(p.recs)), spmat.Index(kmer.SpaceSize(p.cfg.K))
	for _, b := range []struct {
		name    string
		backend dmat.Backend
	}{{"shared", dmat.BackendShared}, {"codec", dmat.BackendCodec}} {
		secs, err := p.cluster("dmat.spgemm."+b.name, false, func(c *mpi.Comm, sw *stopwatch) error {
			g, err := dmat.NewGrid(c)
			if err != nil {
				return err
			}
			g.Backend = b.backend
			var mine []spmat.Triple[int32]
			for i := c.Rank(); i < len(p.triples); i += c.Size() {
				mine = append(mine, p.triples[i])
			}
			a, err := dmat.NewFromTriples(g, n, space, mine, dmat.Int32Codec, nil)
			if err != nil {
				return err
			}
			at, err := a.Transpose()
			if err != nil {
				return err
			}
			if err := sw.start(c); err != nil {
				return err
			}
			if _, err := dmat.SpGEMM(a, at, core.ExactSemiring, core.OverlapCodec, dmat.DefaultSpGEMMOpts()); err != nil {
				return err
			}
			return sw.stop(c)
		})
		if err != nil {
			return err
		}
		p.put("dmat.spgemm."+b.name+"_s", "s", secs)
	}

	var enc []byte
	secs, _ := p.timed("dmat.encode_block", 5, func() error {
		enc = dmat.EncodeBlock(p.a, dmat.Int32Codec)
		return nil
	})
	mb := float64(len(enc)) / 1e6
	p.put("dmat.encode_block.mb_per_s", "MB/s", mb/secs)
	secs, err := p.timed("dmat.decode_block", 5, func() error {
		_, err := dmat.DecodeBlock(enc, dmat.Int32Codec)
		return err
	})
	if err != nil {
		return err
	}
	p.put("dmat.decode_block.mb_per_s", "MB/s", mb/secs)
	p.payload = enc[:len(enc)/ranks]
	return nil
}

// mpiLayer: the collectives SUMMA and the triple shuffle use, on a payload
// the size of one rank's block of A, on each transport.
func (p *prober) mpiLayer() error {
	size := float64(len(p.payload)) / 1e6
	rounds := func(name string, tcp bool, one func(c *mpi.Comm) error) (float64, error) {
		secs, err := p.cluster(name, tcp, func(c *mpi.Comm, sw *stopwatch) error {
			if err := sw.start(c); err != nil {
				return err
			}
			for i := 0; i < p.rounds; i++ {
				if err := one(c); err != nil {
					return err
				}
			}
			return sw.stop(c)
		})
		return secs / float64(p.rounds), err
	}
	bcast := func(c *mpi.Comm) error {
		var send []byte
		if c.Rank() == 0 {
			send = p.payload
		}
		_, err := c.TryBcast(0, send)
		return err
	}
	quarter := p.payload[:len(p.payload)/ranks]
	alltoallv := func(c *mpi.Comm) error {
		bufs := make([][]byte, c.Size())
		for i := range bufs {
			bufs[i] = quarter
		}
		_, err := c.TryAlltoallv(bufs)
		return err
	}

	secs, err := rounds("mpi.bcast.shared", false, func(c *mpi.Comm) error {
		_, err := mpi.TryBcastShared(c, 0, &p.payload, int64(len(p.payload)))
		return err
	})
	if err != nil {
		return err
	}
	p.put("mpi.bcast.shared.us", "us", secs*1e6)
	for _, t := range []struct {
		name string
		tcp  bool
	}{{"codec", false}, {"tcp", true}} {
		if secs, err = rounds("mpi.bcast."+t.name, t.tcp, bcast); err != nil {
			return err
		}
		p.put("mpi.bcast."+t.name+".mb_per_s", "MB/s", size/secs)
		if secs, err = rounds("mpi.alltoallv."+t.name, t.tcp, alltoallv); err != nil {
			return err
		}
		p.put("mpi.alltoallv."+t.name+".mb_per_s", "MB/s", size/secs)
	}
	secs, err = rounds("mpi.allreduce.tcp", true, func(c *mpi.Comm) error {
		_, err := c.TryAllreduceInt64("sum", 1)
		return err
	})
	if err != nil {
		return err
	}
	p.put("mpi.allreduce.tcp.us", "us", secs*1e6)
	return nil
}

// coreLayer: whole all-vs-all runs of the workload's inputs and
// configuration with one knob flipped, so that a change in wall_s can be
// attributed to matrix, alignment or transport, plus the exact counters of
// the unflipped run. A configuration that comes up twice runs once; the
// workload's own is taken from the op loop when the op is that run.
func (p *prober) coreLayer() error {
	type outcome struct {
		secs float64
		res  *pastis.Result
		tcp  mpi.TCPStats
	}
	done := map[string]outcome{}
	clearSubs := p.fx.w.ClearSubs
	key := func(nodes int, cfg pastis.Config) string {
		transport := cfg.Transport
		if transport == "" {
			transport = "shared"
		}
		return fmt.Sprintf("%d/%s/%d/%s/%v", nodes, transport, max(cfg.Blocks, 1), cfg.Align, clearSubs)
	}
	if good := p.win.good; p.fx.w.Batch == 0 && len(good) >= 2 {
		// The op loop already ran the workload's own configuration; its first
		// two ops stand for the two runs every other configuration gets.
		done[key(ranks, p.cfg)] = outcome{secs: min(good[0], good[1]), res: p.fx.last, tcp: p.fx.lastTCP}
	}
	// A run is made twice and the faster kept: a single whole run on this
	// sandbox is off by up to 20%, always on the slow side.
	run := func(name string, nodes int, cfg pastis.Config) (outcome, error) {
		reps := p.reps
		if nodes == 1 {
			reps = 1 // the plain baseline is the longest run of all
		}
		k := key(nodes, cfg)
		if o, ok := done[k]; ok {
			return o, nil
		}
		var best outcome
		for i := 0; i < reps; i++ {
			if clearSubs {
				subkmer.ClearCache()
			}
			var o outcome
			var err error
			o.secs = p.tr.span(name, func() { o.res, err = allVsAll(p.recs, nodes, cfg, &o.tcp) })
			if err != nil {
				return o, err
			}
			if i == 0 || o.secs < best.secs {
				best = o
			}
		}
		done[k] = best
		return best, nil
	}
	with := func(mod func(*pastis.Config)) pastis.Config {
		cfg := p.cfg
		mod(&cfg)
		return cfg
	}

	own, err := run("core.own", ranks, p.cfg)
	if err != nil {
		return err
	}
	matrix, err := run("core.matrix_only", ranks, with(func(c *pastis.Config) { c.Align = pastis.AlignNone }))
	if err != nil {
		return err
	}
	p.put("core.matrix_only_s", "s", matrix.secs)
	p.put("align.share", "ratio", 1-matrix.secs/own.secs)

	transport := map[string]outcome{}
	for _, t := range []string{"shared", "codec", "tcp"} {
		if transport[t], err = run("core.transport."+t, ranks, with(func(c *pastis.Config) { c.Transport = t })); err != nil {
			return err
		}
		p.put("core.transport."+t+"_s", "s", transport[t].secs)
	}
	p.put("dmat.codec.overhead_share", "ratio", 1-transport["shared"].secs/transport["codec"].secs)
	p.put("mpi.tcp.overhead_share", "ratio", 1-transport["codec"].secs/transport["tcp"].secs)
	tcp := transport["tcp"].tcp
	p.put("mpi.tcp.comm_wall_s", "s", tcp.CommWall.Seconds())
	p.put("mpi.tcp.frames", "count", float64(tcp.FramesSent+tcp.FramesReceived))
	p.put("mpi.tcp.wire_mb", "MB", float64(tcp.BytesSent+tcp.BytesReceived)/1e6)

	blocks1, err := run("core.blocks1", ranks, with(func(c *pastis.Config) { c.Blocks = 1 }))
	if err != nil {
		return err
	}
	p.put("core.blocks1_s", "s", blocks1.secs)

	// The plain baseline: one rank, one thread, byte codec, one wave. Its
	// graph is also where the rank-count invariant is checked.
	rank1, err := run("core.ref_1rank", 1, with(func(c *pastis.Config) { c.Transport, c.Blocks = "codec", 1 }))
	if err != nil {
		return err
	}
	p.put("core.ref_1rank_s", "s", rank1.secs)
	p.put("core.rank_speedup", "ratio", rank1.secs/own.secs)
	p.put("core.rank1_diff_edges", "count", float64(edgeDifference(own.res.Edges, rank1.res.Edges)))

	// What an op pays for starting with an empty substitute k-mer cache: the
	// same run again on the cache the last run filled. Without substitute
	// k-mers no run touches the cache and the cost is exactly zero.
	coldCost := 0.0
	if p.cfg.SubstituteKmers > 0 {
		clearSubs = false
		warm, err := run("core.warm_subs", ranks, p.cfg)
		if err != nil {
			return err
		}
		coldCost = own.secs - warm.secs
	}
	p.put("subkmer.cold_cost_s", "s", coldCost)

	st := own.res.Stats
	p.put("core.nnz_b", "count", float64(st.NNZB))
	p.put("core.pairs_aligned", "count", float64(st.PairsAligned))
	p.put("core.cells", "count", float64(st.CellsComputed))
	p.put("core.edges", "count", float64(len(own.res.Edges)))
	p.put("core.peak_bytes_mb", "MB", float64(own.res.PeakBytes)/1e6)
	p.put("mpi.wire_mb", "MB", float64(own.res.BytesOnWire)/1e6)
	p.put("mpi.virtual_s", "s", own.res.Time)
	return nil
}

// indexLayer: the persistent index of the workload's inputs and the query
// engine on top of it: build, load, decode, the cold first batch, warm
// batches of the workload's size (ten where its op is a whole run) and of one,
// batches without alignment, and cached repeats.
func (p *prober) indexLayer() error {
	dir, err := os.MkdirTemp(p.tmp, "probe-index-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var info *pastis.IndexInfo
	secs, err := p.timed("index.build", 1, func() error {
		var err error
		info, err = pastis.BuildIndex(p.recs, ranks, p.cfg, dir)
		return err
	})
	if err != nil {
		return err
	}
	p.put("index.build_s", "s", secs)
	p.put("index.size_mb", "MB", float64(info.Bytes)/1e6)

	secs, err = p.timed("index.load", 3, func() error {
		for r := 0; r < ranks; r++ {
			if _, err := core.LoadRankData(dir, r, ranks, p.cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.put("index.load_s", "s", secs)

	raw, err := os.ReadFile(index.Path(dir, 0))
	if err != nil {
		return err
	}
	secs, err = p.timed("index.decode", 5, func() error {
		_, err := index.Decode(raw)
		return err
	})
	if err != nil {
		return err
	}
	p.put("index.decode.mb_per_s", "MB/s", float64(len(raw))/1e6/secs)

	eng, err := pastis.OpenIndex(dir)
	if err != nil {
		return err
	}
	eng.CacheCap = 0
	cfg := eng.Configure(p.cfg)
	// batches sends count batches of size consecutive records (the generator
	// shuffled them), the i-th starting at record i*size.
	batches := func(name string, count, size int, cfg pastis.Config) ([]float64, error) {
		var secs []float64
		for i := 0; i < count; i++ {
			lo := (i * size) % (len(p.recs) - size + 1)
			var err error
			secs = append(secs, p.tr.span(name, func() { _, err = eng.Query(p.recs[lo:lo+size], cfg) }))
			if err != nil {
				return nil, err
			}
		}
		return secs, nil
	}
	batch := p.fx.w.Batch
	if batch == 0 {
		batch = 10
	}
	cold, err := batches("pastis.query.cold", 1, batch, cfg)
	if err != nil {
		return err
	}
	p.put("index.cold_first_batch_s", "s", cold[0])

	warm, err := batches("pastis.query.batch", p.batches, batch, cfg)
	if err != nil {
		return err
	}
	if p.fx.w.Batch > 0 {
		warm = append(warm, p.win.good...) // the timed window's batches are the same kind
	}
	p.put("pastis.query.batch_p95_ms", "ms", percentile(warm, 95)*1e3)

	single, err := batches("pastis.query.single", p.batches/2, 1, cfg)
	if err != nil {
		return err
	}
	p.put("pastis.query.fixed_ms", "ms", median(single)*1e3)

	noAlign := cfg
	noAlign.Align = pastis.AlignNone
	matrix, err := batches("pastis.query.matrix_only", p.batches/2, batch, noAlign)
	if err != nil {
		return err
	}
	p.put("pastis.query.align_share", "ratio", 1-median(matrix)/median(warm[:p.batches/2]))

	eng.CacheCap = 1024
	again := func() error {
		_, err := eng.Query(p.recs[:batch], cfg)
		return err
	}
	if err := again(); err != nil { // fills the result cache; the repeats are served from it
		return err
	}
	secs, err = p.timed("pastis.query.cached", p.batches/2, again)
	if err != nil {
		return err
	}
	p.put("pastis.query.cached_us", "us", secs*1e6)
	return nil
}
