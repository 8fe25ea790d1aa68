package spmat

import "math/bits"

// This file holds the one sort behind matrix assembly: a stable LSD radix
// sort of a triple list into column-major order. Stability is what makes
// duplicates fold in input order, so order-sensitive adds (seed lists) give
// the same value as the comparison sort this replaced.

// insertionCutoff is the length up to which a stable insertion sort beats
// clearing and scanning the radix counters: the few-row panels of a query
// batch stay on this path.
const insertionCutoff = 96

// radixBits is the widest digit; 2^11 counters stay L1-resident.
const radixBits = 11

// sortTriples stably orders ts by (Col, Row) and returns the slice holding
// the result: ts itself or the one scratch buffer the passes alternate with.
// rowVar and colVar have a bit set wherever the Row (Col) of two triples
// differs; only those bits are sorted on, row digits first and column digits
// after, so the passes are bounded by the indices present and no packed
// (col, row) key is formed — it would overflow 64 bits at |Σ|^k × |Σ|^k. A
// caller whose input is already ordered by Row among equal Cols passes
// rowVar = 0.
func sortTriples[T any](ts []Triple[T], rowVar, colVar uint64) []Triple[T] {
	if len(ts) <= insertionCutoff {
		for i := 1; i < len(ts); i++ {
			t := ts[i]
			j := i
			for ; j > 0 && (ts[j-1].Col > t.Col || ts[j-1].Col == t.Col && ts[j-1].Row > t.Row); j-- {
				ts[j] = ts[j-1]
			}
			ts[j] = t
		}
		return ts
	}
	src, dst := ts, []Triple[T](nil)
	for _, key := range [2]struct {
		col     bool
		varying uint64
	}{{false, rowVar}, {true, colVar}} {
		n := bits.Len64(key.varying)
		if n == 0 {
			continue
		}
		passes := (n + radixBits - 1) / radixBits
		width := (n + passes - 1) / passes
		for shift := 0; shift < n; shift += width {
			mask := uint64(1)<<width - 1
			if key.varying>>shift&mask == 0 {
				continue
			}
			if dst == nil {
				dst = make([]Triple[T], len(ts))
			}
			var count [1 << radixBits]int
			for i := range src {
				count[digit(&src[i], key.col, shift, mask)]++
			}
			sum := 0
			for d, c := range count[:mask+1] {
				count[d] = sum
				sum += c
			}
			for i := range src {
				d := digit(&src[i], key.col, shift, mask)
				dst[count[d]] = src[i]
				count[d]++
			}
			src, dst = dst, src
		}
	}
	return src
}

func digit[T any](t *Triple[T], col bool, shift int, mask uint64) uint64 {
	k := t.Row
	if col {
		k = t.Col
	}
	return uint64(k) >> shift & mask
}
