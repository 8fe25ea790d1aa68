package spmat

import "fmt"

// heapRange multiplies B's nonempty-column range [lo,hi) by k-way merging
// A's (row-sorted) columns with a binary heap, producing each output column
// in row order without a hash table. Faster than hashing for very sparse
// accumulations (the "compression ratio" near 1 regime); slower when rows
// repeat often.
func heapRange[A, B, C any](a *DCSC[A], b *DCSC[B], aCol *aColLookup,
	sr Semiring[A, B, C], lo, hi int) segment[C] {

	var out segment[C]
	// stream is one (A column, B scalar) product being merged.
	type stream struct {
		pos, end int
		bval     B
	}
	var streams []stream
	// Binary heap of stream indices ordered by current row; buffer and
	// closures are shared across columns so the column loop stays
	// allocation-free in steady state.
	var heap []int
	less := func(x, y int) bool { return a.IR[streams[x].pos] < a.IR[streams[y].pos] }
	push := func(s int) {
		heap = append(heap, s)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	pop := func() int {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	for cb := lo; cb < hi; cb++ {
		j := b.JC[cb]
		streams = streams[:0]
		for kb := b.CP[cb]; kb < b.CP[cb+1]; kb++ {
			if ca, ok := aCol.get(b.IR[kb]); ok {
				streams = append(streams, stream{pos: a.CP[ca], end: a.CP[ca+1], bval: b.Vals[kb]})
			}
		}
		if len(streams) == 0 {
			continue
		}
		heap = heap[:0]
		for s := range streams {
			push(s)
		}
		colStart := len(out.ir)
		for len(heap) > 0 {
			s := pop()
			st := &streams[s]
			row := a.IR[st.pos]
			contrib := sr.Multiply(row, j, a.Vals[st.pos], st.bval)
			out.flops++
			if n := len(out.ir); n > colStart && out.ir[n-1] == row {
				out.vals[n-1] = sr.Add(out.vals[n-1], contrib)
			} else {
				out.ir = append(out.ir, row)
				out.vals = append(out.vals, contrib)
			}
			st.pos++
			if st.pos < st.end {
				push(s)
			}
		}
		if len(out.ir) > colStart {
			out.jc = append(out.jc, j)
			out.cp = append(out.cp, colStart)
		}
	}
	return out
}

// spGEMMHeap computes A·B serially with the heap kernel: the independent
// reference TestHashHeapAgreeProperty, TestSpGEMMParallelMatchesSerial and
// the hash fuzz compare the product kernel against.
func spGEMMHeap[A, B, C any](a *DCSC[A], b *DCSC[B], sr Semiring[A, B, C]) (*DCSC[C], Stats, error) {
	if a.NumCols != b.NumRows {
		return nil, Stats{}, fmt.Errorf("spmat: SpGEMM inner dim %d vs %d", a.NumCols, b.NumRows)
	}
	if len(b.JC) == 0 {
		return Empty[C](a.NumRows, b.NumCols), Stats{}, nil
	}
	aCol := newAColLookup(a)
	out, stats := heapRange(a, b, &aCol, sr, 0, len(b.JC)).whole(a.NumRows, b.NumCols)
	return out, stats, nil
}
