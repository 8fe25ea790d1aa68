// Package mmheap implements a generic min-max heap (Atkinson et al., 1986):
// a complete binary tree whose even levels are min-ordered and odd levels are
// max-ordered, giving O(1) FindMin/FindMax and O(log n) insertion and
// extraction of either extreme.
//
// The substitute k-mer search (paper Algorithms 1-3) keeps its current
// m-nearest-neighbor set in such a heap: FindMax prunes candidate
// substitutions against the current worst neighbor, ExtractMax evicts it when
// a closer k-mer arrives, and FindMin/ExtractMin drain results in order.
package mmheap

import "math/bits"

// Heap is a min-max heap ordered by the provided less function.
// The zero value is not usable; construct with New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less.
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements in the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// level returns the depth of index i; even depths are min levels.
func level(i int) int { return bits.Len(uint(i)+1) - 1 }

func onMinLevel(i int) bool { return level(i)%2 == 0 }

// Push inserts v.
func (h *Heap[T]) Push(v T) {
	h.items = append(h.items, v)
	h.bubbleUp(len(h.items) - 1)
}

// Min returns the smallest element without removing it.
// It panics on an empty heap, mirroring container/heap conventions.
func (h *Heap[T]) Min() T {
	if len(h.items) == 0 {
		panic("mmheap: Min of empty heap")
	}
	return h.items[0]
}

// Max returns the largest element without removing it.
func (h *Heap[T]) Max() T {
	return h.items[h.maxIndex()]
}

func (h *Heap[T]) maxIndex() int {
	switch len(h.items) {
	case 0:
		panic("mmheap: Max of empty heap")
	case 1:
		return 0
	case 2:
		return 1
	default:
		if h.less(h.items[1], h.items[2]) {
			return 2
		}
		return 1
	}
}

// ExtractMin removes and returns the smallest element.
func (h *Heap[T]) ExtractMin() T {
	v := h.Min()
	h.removeAt(0)
	return v
}

// ExtractMax removes and returns the largest element.
func (h *Heap[T]) ExtractMax() T {
	i := h.maxIndex()
	v := h.items[i]
	h.removeAt(i)
	return v
}

func (h *Heap[T]) removeAt(i int) {
	last := len(h.items) - 1
	h.items[i] = h.items[last]
	var zero T
	h.items[last] = zero
	h.items = h.items[:last]
	if i < len(h.items) {
		h.bubbleDown(i)
	}
}

func (h *Heap[T]) bubbleUp(i int) {
	if i == 0 {
		return
	}
	parent := (i - 1) / 2
	if onMinLevel(i) {
		if h.less(h.items[parent], h.items[i]) {
			h.items[parent], h.items[i] = h.items[i], h.items[parent]
			h.bubbleUpOrdered(parent, false)
		} else {
			h.bubbleUpOrdered(i, true)
		}
	} else {
		if h.less(h.items[i], h.items[parent]) {
			h.items[parent], h.items[i] = h.items[i], h.items[parent]
			h.bubbleUpOrdered(parent, true)
		} else {
			h.bubbleUpOrdered(i, false)
		}
	}
}

// bubbleUpOrdered moves items[i] toward the root along same-parity levels.
// min selects whether we restore the min-level or max-level invariant.
func (h *Heap[T]) bubbleUpOrdered(i int, min bool) {
	for i > 2 {
		gp := ((i-1)/2 - 1) / 2
		if min {
			if !h.less(h.items[i], h.items[gp]) {
				return
			}
		} else {
			if !h.less(h.items[gp], h.items[i]) {
				return
			}
		}
		h.items[i], h.items[gp] = h.items[gp], h.items[i]
		i = gp
	}
}

func (h *Heap[T]) bubbleDown(i int) {
	if onMinLevel(i) {
		h.bubbleDownOrdered(i, true)
	} else {
		h.bubbleDownOrdered(i, false)
	}
}

// bubbleDownOrdered is the trickle-down of Atkinson et al., restoring the
// min invariant when min is true and the max invariant otherwise.
func (h *Heap[T]) bubbleDownOrdered(i int, min bool) {
	n := len(h.items)
	cmp := func(a, b T) bool {
		if min {
			return h.less(a, b)
		}
		return h.less(b, a)
	}
	for {
		// Find the extreme among children and grandchildren.
		m := -1
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c >= n {
				break
			}
			if m == -1 || cmp(h.items[c], h.items[m]) {
				m = c
			}
			for _, g := range []int{2*c + 1, 2*c + 2} {
				if g >= n {
					break
				}
				if cmp(h.items[g], h.items[m]) {
					m = g
				}
			}
		}
		if m == -1 || !cmp(h.items[m], h.items[i]) {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		if m <= 2*i+2 {
			return // m was a direct child; invariant restored
		}
		// m was a grandchild: its parent may now violate the opposite order.
		parent := (m - 1) / 2
		if cmp(h.items[parent], h.items[m]) {
			h.items[parent], h.items[m] = h.items[m], h.items[parent]
		}
		i = m
	}
}
