package spmat

import (
	"fmt"
	"math/bits"
)

// insertionCutoff is the length up to which a stable insertion sort beats
// clearing and scanning the radix counters: a query batch's few-row panels.
const insertionCutoff = 96

// radixBits is the widest digit; 2^11 counters stay L1-resident.
const radixBits = 11

// Key is an index type entries are held in: Index, or a build's unsigned.
type Key interface{ ~int64 | ~uint32 | ~uint64 }

// FromColumns is the one assembly of a matrix from entries: a rows×cols DCSC
// of entries held as columns, entry x being (lr[x], lc[x], val(x)), with
// duplicates folded by add in entry order (with nil add, an error). A stable
// LSD radix sort of the entry numbers on the varying row digits (none when
// the rows come ordered), then column digits, needs no packed (col, row) key,
// which would overflow 64 bits at |Σ|^k × |Σ|^k. The columns are only read.
func FromColumns[C, R Key, T any](rows, cols Index, lc []C, lr []R, val func(x uint32) T,
	add func(T, T) T) (*DCSC[T], error) {

	if uint64(len(lc)) > 1<<32 {
		return nil, fmt.Errorf("spmat: %d entries overflow the sort's 32-bit entry numbers", len(lc))
	}
	rowsSorted := true
	for x := range lc {
		if uint64(lr[x]) >= uint64(rows) || uint64(lc[x]) >= uint64(cols) {
			return nil, fmt.Errorf("spmat: triple (%d,%d) outside %dx%d", int64(lr[x]), int64(lc[x]), rows, cols)
		}
		rowsSorted = rowsSorted && (x == 0 || lr[x] >= lr[x-1])
	}
	// The entry numbers, stably ordered by (lc[x], lr[x]).
	n := len(lc)
	buf := make([]uint32, n, 2*n)
	perm := buf[:n]
	for i := range perm {
		perm[i] = uint32(i)
	}
	if n <= insertionCutoff {
		for i := 1; i < n; i++ {
			x := perm[i]
			j := i
			for ; j > 0 && (lc[perm[j-1]] > lc[x] || lc[perm[j-1]] == lc[x] && lr[perm[j-1]] > lr[x]); j-- {
				perm[j] = perm[j-1]
			}
			perm[j] = x
		}
	} else {
		tmp, keys := buf[n:2*n], make([]uint64, 2*n)
		if !rowsSorted {
			perm, tmp = radix(perm, tmp, lr, keys)
		}
		perm, _ = radix(perm, tmp, lc, keys)
	}
	ncols, nnz := 0, 0
	for i, x := range perm {
		if y := perm[max(i, 1)-1]; i == 0 || lc[x] != lc[y] {
			ncols++
			nnz++
		} else if lr[x] != lr[y] {
			nnz++
		}
	}
	m := sized[T](rows, cols, ncols, nnz)
	for _, x := range perm {
		if err := m.push(Index(lr[x]), Index(lc[x]), val(x), add); err != nil {
			return nil, err
		}
	}
	m.CP = append(m.CP, len(m.IR))
	return m, nil
}

// radix stably sorts perm by key[perm[i]] on the bits where the keys differ,
// alternating with tmp; each key is read once into keys (2·len(perm)).
func radix[X Key](perm, tmp []uint32, key []X, keys []uint64) ([]uint32, []uint32) {
	var varying uint64
	for _, k := range key {
		varying |= uint64(k ^ key[0])
	}
	n := bits.Len64(varying)
	if n == 0 {
		return perm, tmp
	}
	cur, next := keys[:len(perm)], keys[len(perm):]
	for i, x := range perm {
		cur[i] = uint64(key[x])
	}
	passes := (n + radixBits - 1) / radixBits
	width := (n + passes - 1) / passes
	mask := uint64(1)<<width - 1
	for shift := 0; shift < n; shift += width {
		if varying>>shift&mask == 0 {
			continue
		}
		var count [1 << radixBits]int
		for _, k := range cur {
			count[k>>shift&mask]++
		}
		sum := 0
		for d, c := range count[:mask+1] {
			count[d] = sum
			sum += c
		}
		for i, k := range cur {
			d := k >> shift & mask
			tmp[count[d]], next[count[d]] = perm[i], k
			count[d]++
		}
		perm, tmp = tmp, perm
		cur, next = next, cur
	}
	return perm, tmp
}
