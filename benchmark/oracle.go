package main

import (
	"hash/fnv"
	"math"
	"sort"

	pastis "repro"
)

// A digest is FNV-64a over the little-endian fields of each edge in (R, C)
// order, floats as their bit patterns: two graphs agree only when every
// weight agrees to the last bit. Stats are left out on purpose —
// Stats.CellsComputed depends on which rank aligned a pair from which side.
type digest struct{ buf []byte }

func (d *digest) u64(v uint64) {
	d.buf = append(d.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (d *digest) values(weight, ident, cov, ns float64, score int) {
	d.u64(math.Float64bits(weight))
	d.u64(math.Float64bits(ident))
	d.u64(math.Float64bits(cov))
	d.u64(math.Float64bits(ns))
	d.u64(uint64(int64(score)))
}

func (d *digest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.buf)
	return h.Sum64()
}

// edgeDigest digests a similarity graph. BuildGraph returns edges sorted by
// (R, C); sorting a copy here keeps the digest independent of that.
func edgeDigest(edges []pastis.Edge) uint64 {
	sorted := append([]pastis.Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].R != sorted[j].R {
			return sorted[i].R < sorted[j].R
		}
		return sorted[i].C < sorted[j].C
	})
	d := digest{buf: make([]byte, 0, 56*len(sorted))}
	for _, e := range sorted {
		d.u64(uint64(e.R))
		d.u64(uint64(e.C))
		d.values(e.Weight, e.Ident, e.Cov, e.NS, e.Score)
	}
	return d.sum()
}

// hitDigest digests a query batch's hits as (query position, target, values)
// in (query, target) order. members[i] is the database index of query i; a
// query's hit on its own database row is dropped, as the all-vs-all graph has
// no self edges (the mapping of TestQueryMatchesAllVsAll).
func hitDigest(members []int, hits []pastis.Hit) uint64 {
	sorted := append([]pastis.Hit(nil), hits...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Query != sorted[j].Query {
			return sorted[i].Query < sorted[j].Query
		}
		return sorted[i].Target < sorted[j].Target
	})
	var d digest
	for _, h := range sorted {
		if h.Query < 0 || h.Query >= len(members) || members[h.Query] == h.Target {
			continue
		}
		d.u64(uint64(h.Query))
		d.u64(uint64(h.Target))
		d.values(h.Weight, h.Ident, h.Cov, h.NS, h.Score)
	}
	return d.sum()
}

// expectedHitDigest is hitDigest of what the reference says the batch must
// return: for each query, the reference hits of its database row.
func expectedHitDigest(members []int, refHits [][]pastis.Hit) uint64 {
	var d digest
	for q, g := range members {
		for _, h := range refHits[g] {
			d.u64(uint64(q))
			d.u64(uint64(h.Target))
			d.values(h.Weight, h.Ident, h.Cov, h.NS, h.Score)
		}
	}
	return d.sum()
}

// pairQuality scores a list of pairs against the generator's family labels:
// recall is the share of same-family pairs that were found, precision the
// share of found pairs that join one family. found holds each unordered pair
// once (all-vs-all edges) or twice (query hits from either side); sides says
// which.
func pairQuality(families []int, found [][2]int, sides int) (recall, precision float64) {
	sizes := map[int]int{}
	for _, f := range families {
		if f >= 0 {
			sizes[f]++
		}
	}
	truePairs := 0
	for _, s := range sizes {
		truePairs += s * (s - 1) / 2
	}
	same := 0
	for _, p := range found {
		if f := families[p[0]]; f >= 0 && f == families[p[1]] {
			same++
		}
	}
	if truePairs > 0 {
		recall = float64(same) / float64(sides*truePairs)
	}
	if len(found) > 0 {
		precision = float64(same) / float64(len(found))
	}
	return recall, precision
}

// edgeDifference counts the edges that are in only one of two graphs, or in
// both with different values.
func edgeDifference(a, b []pastis.Edge) int {
	type pair struct{ r, c int64 }
	in := make(map[pair]pastis.Edge, len(a))
	for _, e := range a {
		in[pair{e.R, e.C}] = e
	}
	diff := 0
	for _, e := range b {
		if f, ok := in[pair{e.R, e.C}]; !ok || f != e {
			diff++
		}
		delete(in, pair{e.R, e.C})
	}
	return diff + len(in)
}
