package spmat

import (
	"math/bits"
	"slices"
)

// This file holds the open-addressing hash accumulator behind the hash
// SpGEMM kernel (CombBLAS-style: a flat power-of-two probe table sized per
// output column by its flop count, generation tags instead of clearing).
// hash_test.go holds the map-based reference kernel it is fuzzed against.

// aColLookup resolves a column id of A to its compressed slot. When A's
// nonempty columns are dense inside their span, a flat offset array answers
// in one indexed load; otherwise a flat open-addressing table does
// (hypersparse blocks, where the span can be |Σ|^k while len(JC) is tiny).
// Both store slot+1, so a zeroed array is an empty one.
type aColLookup struct {
	base  Index
	dense []int32 // dense[col-base] = slot+1; nil when probing
	keys  []Index // the probe table: column ids ...
	slots []int32 // ... and their slot+1, 0 = empty
	shift uint
}

// aColDenseFactor bounds the dense table at this multiple of the nonempty
// column count: past it the wasted empty slots cost more cache traffic than
// the probes they replace.
const aColDenseFactor = 8

// newAColLookup builds the lookup; shared read-only across chunk workers.
// len(a.JC) must be below MaxInt32 (SpGEMM checks).
func newAColLookup[A any](a *DCSC[A]) aColLookup {
	n := len(a.JC)
	if n > 0 {
		span := a.JC[n-1] - a.JC[0] + 1
		if span <= Index(aColDenseFactor*n) {
			dense := make([]int32, span)
			for c, col := range a.JC {
				dense[col-a.JC[0]] = int32(c + 1)
			}
			return aColLookup{base: a.JC[0], dense: dense}
		}
	}
	// Load factor <= 1/2, the same Fibonacci probe as hashScratch.
	size := 2
	for size < 2*n {
		size <<= 1
	}
	l := aColLookup{
		keys:  make([]Index, size),
		slots: make([]int32, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
	for c, col := range a.JC {
		s := uint64(col) * fibMul >> l.shift
		for l.slots[s] != 0 {
			s = (s + 1) & uint64(size-1)
		}
		l.keys[s], l.slots[s] = col, int32(c+1)
	}
	return l
}

// get returns A's compressed slot for col.
func (l *aColLookup) get(col Index) (int, bool) {
	if l.dense != nil {
		d := col - l.base
		if d < 0 || d >= Index(len(l.dense)) {
			return 0, false
		}
		s := l.dense[d]
		return int(s) - 1, s > 0
	}
	for s := uint64(col) * fibMul >> l.shift; l.slots[s] != 0; s = (s + 1) & uint64(len(l.slots)-1) {
		if l.keys[s] == col {
			return int(l.slots[s]) - 1, true
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
func hashRange[A, B, C any](a *DCSC[A], b *DCSC[B], aCol *aColLookup,
	sr Semiring[A, B, C], lo, hi int) segment[C] {

	var out segment[C]
	var h hashScratch[C]
	for cb := lo; cb < hi; cb++ {
		j := b.JC[cb]

		// Pairing pass: resolve each B nonzero to its A column once and
		// bound the distinct output rows of this column by its flops.
		h.prods = h.prods[:0]
		colFlops := 0
		for kb := b.CP[cb]; kb < b.CP[cb+1]; kb++ {
			if ca, ok := aCol.get(b.IR[kb]); ok {
				h.prods = append(h.prods, colProduct{ca: ca, kb: kb})
				colFlops += a.CP[ca+1] - a.CP[ca]
			}
		}
		if colFlops == 0 {
			continue
		}
		bound := colFlops
		if Index(bound) > a.NumRows {
			bound = int(a.NumRows)
		}
		h.reserve(bound)
		h.nextGen()
		h.rows = h.rows[:0]

		for _, p := range h.prods {
			bv := b.Vals[p.kb]
			for ka := a.CP[p.ca]; ka < a.CP[p.ca+1]; ka++ {
				i := a.IR[ka]
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
