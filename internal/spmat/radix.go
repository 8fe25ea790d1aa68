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
// of entries held as columns, entry x being (lr[x], lc[x], vals[x]), with
// duplicates folded by add in entry order (with nil add, an error). A stable
// LSD radix sort orders the entry numbers. While a column and a row fit in 64
// bits together it sorts one key per entry, column above row (on the column
// digits only when the rows come ordered), and the keys it leaves in order
// are the entries' positions. Beyond that (|Σ|^k × |Σ|^k) it sorts on the
// varying row digits (none when the rows come ordered), then on the column
// digits, and reads the rows back once. The values are read once, in entry
// order, into their places. lc, lr and vals are only read.
func FromColumns[C, R Key, T any](rows, cols Index, lc []C, lr []R, vals []T,
	add func(T, T) T) (*DCSC[T], error) {

	if uint64(len(lc)) > 1<<32 {
		return nil, fmt.Errorf("spmat: %d entries overflow the sort's 32-bit entry numbers", len(lc))
	}
	// The entry numbers, stably ordered by (lc[x], lr[x]), and the sorted
	// entries' columns and rows: cs[i] and rs[i] belong to entry perm[i].
	n := len(lc)
	rb := bits.Len64(uint64(rows - 1))
	one := n > insertionCutoff && rb+bits.Len64(uint64(cols-1)) <= 64 // one key per entry
	keys, buf := make([]uint64, 2*n), make([]uint32, 2*n)
	perm, tmp := buf[:n], buf[n:]
	rowsSorted := true
	for x := range lc {
		if uint64(lr[x]) >= uint64(rows) || uint64(lc[x]) >= uint64(cols) {
			return nil, fmt.Errorf("spmat: triple (%d,%d) outside %dx%d", int64(lr[x]), int64(lc[x]), rows, cols)
		}
		rowsSorted = rowsSorted && (x == 0 || lr[x] >= lr[x-1])
		perm[x] = uint32(x)
		if one {
			keys[x] = uint64(lc[x])<<rb | uint64(lr[x])
		}
	}
	var cs, rs []uint64
	switch {
	case n <= insertionCutoff:
		for i := 1; i < n; i++ {
			x := perm[i]
			j := i
			for ; j > 0 && (lc[perm[j-1]] > lc[x] || lc[perm[j-1]] == lc[x] && lr[perm[j-1]] > lr[x]); j-- {
				perm[j] = perm[j-1]
			}
			perm[j] = x
		}
		cs, rs = keys[:n], keys[n:]
		for i, x := range perm {
			cs[i], rs[i] = uint64(lc[x]), uint64(lr[x])
		}
	case one:
		low := 0
		if rowsSorted {
			low = rb
		}
		perm, tmp, cs, rs = radix(perm, tmp, keys, low) // cs holds the keys until split below
	default:
		if !rowsSorted {
			for x := range perm {
				keys[x] = uint64(lr[x])
			}
			perm, tmp, _, _ = radix(perm, tmp, keys, 0)
		}
		for i, x := range perm {
			keys[i] = uint64(lc[x])
		}
		perm, tmp, cs, rs = radix(perm, tmp, keys, 0)
		for i, x := range perm {
			rs[i] = uint64(lr[x])
		}
	}
	ncols, nnz := 0, 0
	for i := range perm {
		if one {
			cs[i], rs[i] = cs[i]>>rb, cs[i]&(1<<rb-1)
		}
		if i == 0 || cs[i] != cs[i-1] {
			ncols++
			nnz++
		} else if rs[i] != rs[i-1] {
			nnz++
		}
	}
	// The positions, in order, and tmp[x], the slot of entry x in IR; perm[s]
	// becomes the first entry of slot s, which perm has been read past (with
	// no duplicate, slot i is entry perm[i]'s already).
	idx := make([]Index, ncols+nnz) // JC and IR, in one allocation
	m := &DCSC[T]{NumRows: rows, NumCols: cols, JC: idx[:0:ncols], CP: make([]int, 0, ncols+1),
		IR: idx[ncols:], Vals: make([]T, nnz)}
	s := -1
	for i, x := range perm {
		switch {
		case i == 0 || cs[i] != cs[i-1]:
			m.JC = append(m.JC, Index(cs[i]))
			m.CP = append(m.CP, s+1)
		case rs[i] == rs[i-1]:
			if add == nil {
				return nil, fmt.Errorf("spmat: duplicate entry (%d,%d) with nil add", rs[i], cs[i])
			}
			tmp[x] = uint32(s)
			continue
		}
		s++
		tmp[x] = uint32(s)
		m.IR[s] = Index(rs[i])
		if nnz < n {
			perm[s] = x
		}
	}
	m.CP = append(m.CP, nnz)
	// The values, read in entry order (reading them in sorted order costs a
	// cache miss each) and written to their slots: a slot's first entry sets
	// it and the later ones fold into it with add, in entry order.
	for x, s := range tmp[:n] {
		if v := vals[x]; nnz == n || perm[s] == uint32(x) {
			m.Vals[s] = v
		} else {
			m.Vals[s] = add(m.Vals[s], v)
		}
	}
	return m, nil
}

// radix stably sorts perm by keys[:len(perm)], the key of each entry in
// perm's order, on the bits from low up where the keys differ (the bits below
// low are in order already), alternating with tmp and keys[len(perm):]. It
// returns perm and tmp, and the keys in their new order and the other half of
// keys.
func radix(perm, tmp []uint32, keys []uint64, low int) (_, _ []uint32, sorted, spare []uint64) {
	cur, next := keys[:len(perm)], keys[len(perm):2*len(perm)]
	var varying uint64
	for _, k := range cur {
		varying |= k ^ cur[0]
	}
	varying &^= 1<<low - 1
	hi := bits.Len64(varying)
	span := max(hi-low, 0)
	passes := max((span+radixBits-1)/radixBits, 1)
	width := (span + passes - 1) / passes
	mask := uint64(1)<<width - 1
	for shift := low; shift < hi; shift += width {
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
	return perm, tmp, cur, next
}
