package spmat

import (
	"math/bits"
	"slices"
)

// This file holds the open-addressing hash accumulator behind the hash
// SpGEMM kernel (CombBLAS-style: a flat power-of-two probe table sized per
// output column by its flop count, generation tags instead of clearing) and
// the column index that resolves B's row ids to A's columns, built in one
// forward pass over A's sorted JC. hash_test.go holds the map-based
// reference kernel it is fuzzed against.

// aColLookup resolves a column id of A to its compressed slot: the AUX
// array of CombBLAS's DCSC (Buluç & Gilbert, IPDPS 2008). A's sorted JC is
// cut into buckets of 2^shift consecutive column ids from JC[0], shift the
// smallest with span>>shift <= len(JC), and start[b] is the first slot of
// bucket b. A lookup reads two start entries and searches inside its
// bucket, so the index costs at most 4·(len(JC)+2) bytes on a dense and a
// hypersparse block alike, and a clustered JC that piles into one bucket
// costs a binary search, never a scan.
type aColLookup struct {
	jc    []Index
	start []int32
	shift uint
}

// newAColLookup builds the index; shared read-only across chunk workers.
// len(a.JC) must be below MaxInt32 (SpGEMM checks).
func newAColLookup[A any](a *DCSC[A]) aColLookup {
	n := len(a.JC)
	if n == 0 {
		return aColLookup{}
	}
	span := uint64(a.JC[n-1] - a.JC[0])
	shift := uint(0)
	for span>>shift > uint64(n) {
		shift++
	}
	l := aColLookup{jc: a.JC, start: make([]int32, span>>shift+2), shift: shift}
	b := 0
	for c, col := range a.JC {
		for end := int(uint64(col-a.JC[0]) >> shift); b <= end; b++ {
			l.start[b] = int32(c)
		}
	}
	l.start[b] = int32(n) // b == len(l.start)-1: the end of the last bucket
	return l
}

// get returns A's compressed slot for col.
func (l *aColLookup) get(col Index) (int, bool) {
	if len(l.jc) == 0 || col < l.jc[0] || col > l.jc[len(l.jc)-1] {
		return 0, false
	}
	b := uint64(col-l.jc[0]) >> l.shift
	lo, hi := int(l.start[b]), int(l.start[b+1])
	if hi-lo > 8 {
		c, ok := slices.BinarySearch(l.jc[lo:hi], col)
		return lo + c, ok
	}
	for c := lo; c < hi; c++ {
		if l.jc[c] >= col {
			return c, l.jc[c] == col
		}
	}
	return 0, false
}

// colProduct is one (A column, B nonzero) pairing contributing to the
// current output column, collected once so the lookup runs once per B
// nonzero instead of twice (sizing pass + multiply pass).
type colProduct struct {
	ca, kb int
}

// hashScratch is the reusable state of the open-addressing accumulator.
// One instance serves every column of a hashRange call: the probe table
// grows monotonically to the largest column's flop bound and the
// generation tag makes stale entries invisible without clearing, so the
// per-column hot loop allocates nothing in steady state.
type hashScratch[C any] struct {
	keys  []Index
	vals  []C
	gen   []uint32
	cur   uint32
	mask  uint64
	shift uint
	rows  []Index
	prods []colProduct
}

// fibMul is the 64-bit Fibonacci hashing constant; the high bits of
// row*fibMul spread consecutive row ids across the table.
const fibMul = 0x9E3779B97F4A7C15

func (h *hashScratch[C]) slot(row Index) uint64 {
	return (uint64(row) * fibMul) >> h.shift
}

// reserve makes the probe table large enough for n distinct keys at load
// factor <= 1/2, preserving nothing (the caller starts a fresh generation).
func (h *hashScratch[C]) reserve(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if size <= len(h.keys) {
		return
	}
	h.keys = make([]Index, size)
	h.vals = make([]C, size)
	h.gen = make([]uint32, size)
	h.cur = 0
	h.mask = uint64(size - 1)
	h.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// nextGen opens a fresh generation: every slot of the table becomes
// logically empty in O(1). On uint32 wraparound the tags are cleared so a
// 4-billion-column-old entry cannot masquerade as live.
func (h *hashScratch[C]) nextGen() {
	h.cur++
	if h.cur == 0 {
		clear(h.gen)
		h.cur = 1
	}
}

// hashRange multiplies B's nonempty-column range [lo,hi) with the
// open-addressing accumulator (one of the two local kernels CombBLAS
// mixes). Structure, values and flop count are bit-identical to the map
// reference in hash_test.go: contributions accumulate in the same
// iteration order and output rows are emitted sorted.
//
// rowMax, when non-nil, bounds output column j to rows <= rowMax(j): an A
// column is walked only up to its first row past the bound (IR ascends
// within a column), so no multiply past it is performed or counted, and a
// column the bound empties is not emitted.
func hashRange[A, B, C any](a *DCSC[A], b *DCSC[B], aCol *aColLookup,
	sr Semiring[A, B, C], rowMax func(Index) Index, lo, hi int) segment[C] {

	var out segment[C]
	var h hashScratch[C]
	last := a.NumRows - 1
	for cb := lo; cb < hi; cb++ {
		j := b.JC[cb]
		if rowMax != nil {
			last = rowMax(j)
		}

		// Pairing pass: resolve each B nonzero to its A column once — kept
		// only when the column reaches a row within the bound — and bound
		// the distinct output rows of this column by its flops.
		h.prods = h.prods[:0]
		colFlops := 0
		for kb := b.CP[cb]; kb < b.CP[cb+1]; kb++ {
			if ca, ok := aCol.get(b.IR[kb]); ok && a.IR[a.CP[ca]] <= last {
				h.prods = append(h.prods, colProduct{ca: ca, kb: kb})
				colFlops += a.CP[ca+1] - a.CP[ca]
			}
		}
		if colFlops == 0 {
			continue
		}
		bound := colFlops
		if Index(bound) > last+1 {
			bound = int(last + 1)
		}
		h.reserve(bound)
		h.nextGen()
		h.rows = h.rows[:0]

		for _, p := range h.prods {
			bv := b.Vals[p.kb]
			for ka := a.CP[p.ca]; ka < a.CP[p.ca+1]; ka++ {
				i := a.IR[ka]
				if i > last {
					break
				}
				contrib := sr.Multiply(i, j, a.Vals[ka], bv)
				out.flops++
				s := h.slot(i)
				for {
					if h.gen[s] != h.cur {
						h.gen[s] = h.cur
						h.keys[s] = i
						h.vals[s] = contrib
						h.rows = append(h.rows, i)
						break
					}
					if h.keys[s] == i {
						h.vals[s] = sr.Add(h.vals[s], contrib)
						break
					}
					s = (s + 1) & h.mask
				}
			}
		}

		slices.Sort(h.rows)
		out.jc = append(out.jc, j)
		out.cp = append(out.cp, len(out.ir))
		for _, i := range h.rows {
			s := h.slot(i)
			for h.gen[s] != h.cur || h.keys[s] != i {
				s = (s + 1) & h.mask
			}
			out.ir = append(out.ir, i)
			out.vals = append(out.vals, h.vals[s])
		}
	}
	return out
}
