// Package last is a from-scratch stand-in for LAST (Kiełbasa et al. 2011),
// the paper's single-node comparator (Sections III and VI). It reproduces
// the two properties the paper leans on:
//
//   - adaptive seeds over a suffix array: at each query position the seed
//     is lengthened until it occurs at most maxInitialMatches times in the
//     target set, so sensitivity rises (and runtime grows) with the
//     max-initial-matches parameter (the paper sweeps 100/200/300);
//   - shared-memory only: Run is deliberately serial, which is why the
//     paper reports LAST as a single-node point in the runtime plots.
package last

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/align"
	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/mpi"
	"repro/internal/scoring"
	"repro/internal/spmat"
)

// Config controls the search.
type Config struct {
	MaxInitialMatches int // adaptive seed frequency threshold
	MinSeedLen        int // shortest seed considered informative

	Weight      core.WeightMode
	MinIdentity float64
	MinCoverage float64

	GapOpen, GapExtend int
	XDrop              int
}

// DefaultConfig mirrors the paper's LAST settings (m=100).
func DefaultConfig() Config {
	return Config{
		MaxInitialMatches: 100, MinSeedLen: 5,
		Weight: core.WeightANI, MinIdentity: 0.30, MinCoverage: 0.70,
		GapOpen: 11, GapExtend: 1, XDrop: 49,
	}
}

// Stats counts the work performed.
type Stats struct {
	Suffixes   int64
	Seeds      int64
	Candidates int64
	Aligned    int64
	Edges      int64
}

// concat is the concatenated target text with sequence boundaries.
type concat struct {
	text   []alphabet.Code
	starts []int // starts[i] = offset of sequence i; len(starts) = n+1
}

func (c *concat) seqOf(off int) (seq, pos int) {
	i := sort.Search(len(c.starts)-1, func(k int) bool { return c.starts[k+1] > off })
	return i, off - c.starts[i]
}

// Run searches every sequence against every other and returns similarity
// edges. Serial by design; see the package comment.
func Run(recs []fasta.Record, cfg Config) ([]core.Edge, Stats, error) {
	if cfg.MaxInitialMatches <= 0 {
		return nil, Stats{}, fmt.Errorf("last: MaxInitialMatches must be positive")
	}
	if cfg.MinSeedLen <= 0 {
		cfg.MinSeedLen = 5
	}
	var stats Stats

	// Build the concatenated text and its suffix array.
	ct := &concat{}
	seqs := make([][]alphabet.Code, len(recs))
	for i, r := range recs {
		codes, err := alphabet.EncodeSeq(alphabet.Clean(r.Seq))
		if err != nil {
			return nil, Stats{}, err
		}
		seqs[i] = codes
		ct.starts = append(ct.starts, len(ct.text))
		ct.text = append(ct.text, codes...)
	}
	ct.starts = append(ct.starts, len(ct.text))

	sa := buildSuffixArray(ct.text)
	stats.Suffixes = int64(len(sa))

	// One x-drop kernel instance for every pair, so its DP buffers are reused.
	xd, err := align.NewKernel("xd")
	if err != nil {
		return nil, Stats{}, err
	}
	params := align.Params{
		Scoring: align.Scoring{Matrix: scoring.BLOSUM62, GapOpen: cfg.GapOpen, GapExtend: cfg.GapExtend},
		XDrop:   cfg.XDrop,
	}
	seed := make([]align.Seed, 1)
	filter := core.SimilarityFilter{Weight: cfg.Weight, MinIdentity: cfg.MinIdentity, MinCoverage: cfg.MinCoverage}

	type seedHit struct{ qPos, tPos int }
	var edges []core.Edge
	for q := range seqs {
		qCodes := seqs[q]
		cand := map[int]seedHit{} // target -> one seed
		for p := 0; p+cfg.MinSeedLen <= len(qCodes); p++ {
			lo, hi, seedLen := adaptiveSeed(ct.text, sa, qCodes[p:], cfg)
			if seedLen < cfg.MinSeedLen || hi-lo == 0 || hi-lo > cfg.MaxInitialMatches {
				continue
			}
			stats.Seeds++
			for _, off := range sa[lo:hi] {
				t, tPos := ct.seqOf(off)
				if t <= q { // score each unordered pair once
					continue
				}
				if tPos+seedLen > len(seqs[t]) {
					continue // seed crosses a sequence boundary
				}
				stats.Candidates++
				if _, dup := cand[t]; !dup {
					cand[t] = seedHit{qPos: p, tPos: tPos}
				}
			}
		}
		// Deterministic order over candidates.
		targets := make([]int, 0, len(cand))
		for t := range cand {
			targets = append(targets, t)
		}
		sort.Ints(targets)
		for _, t := range targets {
			hit := cand[t]
			stats.Aligned++
			seed[0] = align.Seed{PosA: hit.qPos, PosB: hit.tPos, K: cfg.MinSeedLen}
			res, err := xd.Align(qCodes, seqs[t], seed, params)
			if err != nil {
				// Seeds lie inside both sequences by construction, so this is
				// a pair or a parameter the kernel cannot take, not a miss.
				return nil, Stats{}, fmt.Errorf("last: aligning sequences %d and %d: %w", q, t, err)
			}
			if e, ok := filter.Edge(spmat.Index(q), spmat.Index(t), len(qCodes), len(seqs[t]), res); ok {
				edges = append(edges, e)
			}
		}
	}
	stats.Edges = int64(len(edges))
	return edges, stats, nil
}

// RunCluster is Run as the one rank of a single-node cluster under model
// (the paper's LAST comparator is shared-memory only): the edges and the
// virtual time of one node doing all the work. The public wrapper and the
// experiments both run the baseline through it.
func RunCluster(recs []fasta.Record, cfg Config, model mpi.CostModel) ([]core.Edge, float64, error) {
	edges, sum, err := mpi.RunLocal(context.Background(), 1, model, nil, func(c *mpi.Comm) ([]core.Edge, error) {
		edges, stats, err := Run(recs, cfg)
		if err != nil {
			return nil, err
		}
		// Charge the serial work to the single rank's clock.
		c.Clock().Ops(float64(stats.Suffixes)*40 + float64(stats.Seeds)*25 +
			float64(stats.Candidates)*8 + float64(stats.Aligned)*4000)
		return edges, nil
	})
	if err != nil {
		return nil, 0, err
	}
	return edges, sum.Time, nil
}

// buildSuffixArray sorts all suffix offsets of text lexicographically.
// O(n log n) comparisons with O(n) average comparison cost on protein data;
// sufficient for the evaluation scales of this reproduction.
func buildSuffixArray(text []alphabet.Code) []int {
	sa := make([]int, len(text))
	for i := range sa {
		sa[i] = i
	}
	sort.Slice(sa, func(a, b int) bool {
		sa1, sa2 := text[sa[a]:], text[sa[b]:]
		n := len(sa1)
		if len(sa2) < n {
			n = len(sa2)
		}
		for i := 0; i < n; i++ {
			if sa1[i] != sa2[i] {
				return sa1[i] < sa2[i]
			}
		}
		return len(sa1) < len(sa2)
	})
	return sa
}

// adaptiveSeed finds the longest prefix of query whose suffix-array range is
// no larger than MaxInitialMatches, returning the range and seed length
// (LAST's adaptive seed rule: lengthen until rare enough).
func adaptiveSeed(text []alphabet.Code, sa []int, query []alphabet.Code, cfg Config) (lo, hi, seedLen int) {
	lo, hi = 0, len(sa)
	for l := 1; l <= len(query); l++ {
		c := query[l-1]
		// Narrow [lo,hi) to suffixes whose l-th character is c.
		lo = lo + sort.Search(hi-lo, func(i int) bool {
			off := sa[lo+i] + l - 1
			return off < len(text) && text[off] >= c
		})
		hi = lo + sort.Search(hi-lo, func(i int) bool {
			off := sa[lo+i] + l - 1
			return off >= len(text) || text[off] > c
		})
		if hi-lo == 0 {
			return lo, hi, l - 1
		}
		seedLen = l
		// The seed must be both long enough to be informative and rare
		// enough to be selective; keep lengthening until both hold.
		if seedLen >= cfg.MinSeedLen && hi-lo <= cfg.MaxInitialMatches {
			return lo, hi, seedLen
		}
	}
	return lo, hi, seedLen
}
