// Package subkmer computes the m nearest substitute k-mers of a k-mer under
// a substitution matrix — the rows of the paper's S (Section IV-B, which
// finds them with Algorithms 1-3).
//
// The distance of a substitute k-mer q from the root r is the total score
// expense sum_i (C[r_i][r_i] - C[r_i][q_i]) over substituted positions: the
// score lost relative to an exact match. Because BLOSUM-style matrices have
// non-uniform scores, the m nearest neighbors are not necessarily
// single-substitution k-mers (the paper's AAC example: TTC at distance 8
// beats every AA* single substitution).
//
// The distance is a sum over positions, so the search splits the k-mer
// instead of walking the paper's substitution tree. Let M = m+1 and let
// near(n, x) be the M nearest n-mers of x, x itself (at distance 0)
// included, sorted by (distance, id) — all of them when fewer exist. A
// 1-mer's list is its base merged into its expense row. A longer x splits
// into its high h = ⌈n/2⌉ positions a and its low l = ⌊n/2⌋ positions b: an
// n-mer is a pair (a', b') of an h-mer and an l-mer, at distance
// d(a') + d(b') with id a'·24^l + b', so near(n, x) is the M smallest pairs
// of near(h, a) × near(l, b) under (d(a') + d(b'), a'·24^l + b') — selection
// in X+Y (Frederickson & Johnson, 1982).
//
// The two lists suffice. Suppose (a', b') is among the M nearest n-mers but
// a' is missing from near(h, a). Then that list holds M h-mers c that each
// precede a' in (distance, id) order, and each pair (c, b') then precedes
// (a', b'): a smaller sum, or an equal sum and a smaller id. That is M pairs
// ahead of (a', b'), which is a contradiction; the same holds for b'. The
// argument compares sums only, so it needs no sign on the expenses: the B, Z
// and X rows' zero and negative expenses are searched as exactly as the
// standard rows. AppendFind takes near(k, root), drops the root and keeps the
// first m: the m nearest other k-mers are among the M nearest of all.
//
// merge walks the pairs in that order. Pair (i, j) of the two sorted lists
// is preceded by every (i', j') <= (i, j) componentwise, so it can be among
// the first M only if (i+1)(j+1) <= M. The rows not yet begun wait in order
// (row i's first pair precedes row i+1's), a heap holds each begun row's next
// pair, one per row, and a row's pairs at one distance leave together: a list
// costs O(M log M).
//
// A Finder remembers the lists of the halves of 2 and 3 positions it has met
// (memoLen): a 6-mer root splits into two of them, so a warm 6-mer search is
// one merge. The memo holds 4-byte entries, at most M per distinct half; it
// is filled as roots need it, never sized to the 24^3 halves there are, and
// is found through a table of one 8-byte span per 2- and 3-mer (115 KB). It
// dies with the Finder — one per rank's expansion in core (an index's, or
// a query batch's), one per mmseqs rank. A Finder starts remembering at its
// second root, so one that searches once, as Find does, builds no memo.
// Nothing else remembers a search: not across Finders, ranks or runs, not on
// disk. A warm search allocates nothing.
package subkmer

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/alphabet"
	"repro/internal/kmer"
	"repro/internal/scoring"
)

// Neighbor is one substitute k-mer with its distance from the root.
type Neighbor struct {
	ID   kmer.ID
	Dist int
}

// A list entry packs a distance, biased by 2^31, above an id of at most 6
// positions (24^6 < 2^32), so entries order as their (distance, id) do. Every
// half of a k <= MaxK = 12 root fits; only the root's own list does not, and
// AppendFind turns it into Neighbors as it reads it.
const (
	idMask = 1<<32 - 1
	bias   = 1 << 31
)

func entry(dist int, id uint64) uint64 { return uint64(dist+bias)<<32 | id }

func distOf(e uint64) int { return int(e>>32) - bias }

// join is the entry of the n-mer made of the high half x and the low half y,
// w = 24^(y's length).
func join(x, y, w uint64) uint64 {
	return (x&^idMask + y&^idMask - bias<<32) | ((x&idMask)*w + y&idMask)
}

// memoLen is the longest half a Finder remembers. A memo entry packs the
// distance into its high 18 bits and an id below 24^3 into its low 14: three
// positions of int8 scores are at most 3·255 apart. The span of 2-mer x is
// spans[x], of 3-mer x spans[twoMers+x].
const (
	memoLen = 3
	idBits  = 14
	twoMers = alphabet.Size * alphabet.Size
)

func pack(e uint64) uint32 { return uint32(distOf(e))<<idBits | uint32(e&idMask) }

func unpack(p uint32) uint64 { return entry(int(int32(p)>>idBits), uint64(p&(1<<idBits-1))) }

// span is where a remembered half's list sits in the memo; n = 0: not met.
type span struct{ off, n uint32 }

// pair is merge's heap entry: entry i of the high list with entry j of the
// low one. The heap holds one pair per row i at most, and rows differ in
// their high half, so (distance sum, high id) orders its pairs as their
// (distance, id) does; key packs the two like an entry.
type pair struct {
	key  uint64
	i, j uint32
}

// Finder is the reusable state of the m-nearest search for one (k, expense
// table, m). A search whose halves it has met allocates nothing. Not safe
// for concurrent use; give each goroutine its own.
type Finder struct {
	k, m int
	e    *scoring.Expense

	memo     []uint32 // the remembered lists, packed
	spans    []span   // each 2- and 3-mer's list in memo (memoLen)
	searched bool     // a root was searched: remember from the next

	// lists holds every list a search builds. level[d] = {offset, high room,
	// low room} places the two halves' lists of a split d merges below the
	// root's (at most ⌈log2 MaxK⌉ = 4 levels), each with room for the
	// longest list a half of that level can have; the root's pairs, built
	// last, go after level 0's, over the deeper levels' rooms. heap is
	// merge's, with room for every row that can be begun with a pair left
	// over. The searches fill them and never store them back.
	lists []uint64
	level [4][3]uint32
	heap  []pair
}

// NewFinder returns a Finder of the m nearest substitutes of k-mers of
// length k under the expense table e.
func NewFinder(k int, e *scoring.Expense, m int) (*Finder, error) {
	f := new(Finder)
	if err := f.init(k, e, m); err != nil {
		return nil, err
	}
	return f, nil
}

// init readies f as NewFinder(k, e, m). Find calls it on a Finder of its
// own, which then stays off the heap.
func (f *Finder) init(k int, e *scoring.Expense, m int) error {
	if k <= 0 || k > kmer.MaxK {
		return fmt.Errorf("subkmer: k=%d out of range [1,%d]", k, kmer.MaxK)
	}
	*f = Finder{k: k, m: max(m, 0), e: e}
	// An n-mer's list is at most m+1 long and at most 21^n: each position
	// holds its own code or one of the 20 standard ones.
	size := func(n int) int {
		l := 1
		for ; n > 0 && l <= f.m; n-- {
			l *= scoring.StandardAACount + 1
		}
		return min(l, f.m+1)
	}
	total := 0
	for d, n := 0, k; d == 0 || n > 1; d, n = d+1, (n+1)/2 {
		hi, lo := size((n+1)/2), size(n/2) // a 1-mer root splits too, into 1 and 0
		f.level[d] = [3]uint32{uint32(total), uint32(hi), uint32(lo)}
		total += hi + lo
	}
	top := int(f.level[0][1] + f.level[0][2])
	f.lists = make([]uint64, max(total, top+size(k)))
	// Row i has a pair left after its first only if (i+1)·2 <= m+1.
	f.heap = make([]pair, 0, min(size((k+1)/2), (f.m+1)/2))
	return nil
}

// AppendFind appends to dst the m nearest substitute k-mers of root, sorted
// by (distance, id), and returns the extended slice. The root itself is not
// included. Fewer than m neighbors are appended only when the candidate
// space is smaller than m.
func (f *Finder) AppendFind(dst []Neighbor, root kmer.ID) []Neighbor {
	if f.m == 0 {
		return dst
	}
	if f.searched && f.spans == nil {
		f.spans = make([]span, twoMers+twoMers*alphabet.Size)
	}
	f.searched = true
	a, b, w := f.split(f.k, uint64(root), 0)
	n := 0
	top := f.level[0][1] + f.level[0][2]
	for _, ij := range f.merge(f.lists[top:top], a, b, 0) {
		x, y := a[ij>>32], b[ij&idMask]
		nb := Neighbor{ID: kmer.ID((x&idMask)*w + y&idMask), Dist: distOf(x) + distOf(y)}
		if nb.ID == root {
			continue
		}
		if n == f.m {
			break
		}
		dst = append(dst, nb)
		n++
	}
	return dst
}

// split fills the buffers of level depth with near of x's high ⌈n/2⌉ and low
// ⌊n/2⌋ positions and returns them with w = 24^⌊n/2⌋. The low half of a
// 1-mer is the empty 0-mer, whose list is itself at distance 0.
func (f *Finder) split(n int, x uint64, depth int) (hi, lo []uint64, w uint64) {
	l := n / 2
	w = kmer.SpaceSize(l)
	at, rh, rl := f.level[depth][0], f.level[depth][1], f.level[depth][2]
	h := f.lists[at : at+rh+rl]
	return f.near(h[:0:rh], n-l, x/w, depth+1), f.near(h[rh:rh:rh+rl], l, x%w, depth+1), w
}

// near returns near(n, x), n <= 6, in buf's array.
func (f *Finder) near(buf []uint64, n int, x uint64, depth int) []uint64 {
	switch {
	case n == 0:
		return append(buf[:0], entry(0, 0))
	case n == 1:
		return f.single(buf[:0], x)
	}
	slot := x
	if n == memoLen {
		slot += twoMers
	}
	remember := n <= memoLen && f.spans != nil
	if remember {
		if s := f.spans[slot]; s.n > 0 {
			buf = buf[:0]
			for _, p := range f.memo[s.off : s.off+s.n] {
				buf = append(buf, unpack(p))
			}
			return buf
		}
	}
	a, b, w := f.split(n, x, depth)
	buf = f.merge(buf, a, b, w)
	if remember {
		f.spans[slot] = span{uint32(len(f.memo)), uint32(len(buf))}
		memo := slices.Grow(f.memo, len(buf))
		for _, e := range buf {
			memo = append(memo, pack(e))
		}
		f.memo = memo
	}
	return buf
}

// single appends near(1, base): the base at distance 0 merged into its
// expense row, which is sorted by (expense, base) already.
func (f *Finder) single(dst []uint64, base uint64) []uint64 {
	row := f.e.Rows[base]
	n := min(f.m+1, len(row)+1)
	at := 0 // the base's place in the row
	for at < len(row) && (row[at].Expense < 0 || row[at].Expense == 0 && uint64(row[at].Base) < base) {
		at++
	}
	for _, s := range row[:min(at, n)] {
		dst = append(dst, entry(s.Expense, uint64(s.Base)))
	}
	if at < n {
		dst = append(dst, entry(0, base))
		for _, s := range row[at : n-1] {
			dst = append(dst, entry(s.Expense, uint64(s.Base)))
		}
	}
	return dst
}

// merge returns in out's array the first min(m+1, len(a)·len(b)) pairs of
// a × b in the order of their n-mers' (distance, id), pair (i, j) as the
// entry join(a[i], b[j], w), or as i<<32 | j when w is 0: the root's, whose
// ids need not fit an entry.
func (f *Finder) merge(out, a, b []uint64, w uint64) []uint64 {
	bound := f.m + 1
	n := min(bound, len(a)*len(b))
	out = slices.Grow(out[:0], n)[:n]
	key := func(i, j int) uint64 { return a[i] + b[j]&^idMask - bias<<32 }
	// The rows not yet begun wait in a's order, next first: row i's first
	// pair precedes row i+1's. The heap holds the begun rows' next pairs.
	h, next, rows := f.heap[:0], 0, min(len(a), bound)
	for o := 0; o < n; {
		var i, j int
		if next < rows && (len(h) == 0 || key(next, 0) < h[0].key) {
			i, next = next, next+1
		} else {
			i, j = int(h[0].i), int(h[0].j)
		}
		// The row's pairs at this sum come next, in id order: every other
		// pair left is of a larger sum or a larger high id. Pair (i, j) can
		// be among the first bound only if (i+1)(j+1) <= bound.
		d, at := b[j]>>32, j
		for ; j < len(b) && (i+1)*(j+1) <= bound && b[j]>>32 == d && o < n; j++ {
			if w == 0 {
				out[o] = uint64(i)<<32 | uint64(j)
			} else {
				out[o] = join(a[i], b[j], w)
			}
			o++
		}
		more := j < len(b) && (i+1)*(j+1) <= bound
		switch {
		case at > 0 && more: // the row's next pair replaces its last
			siftDown(h, pair{key(i, j), uint32(i), uint32(j)})
		case at > 0: // the row is done
			last := h[len(h)-1]
			h = h[:len(h)-1]
			siftDown(h, last)
		case more: // the row is begun
			h = push(h, pair{key(i, j), uint32(i), uint32(j)})
		}
	}
	return out
}

// siftDown puts p in h[0]'s place and moves it down to its own. The pair
// comes as a value, not read back from the heap: a read of a pair just
// stored stalls.
func siftDown(h []pair, p pair) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].key < h[c].key {
			c++
		}
		if p.key <= h[c].key {
			break
		}
		h[i] = h[c]
		i = c
	}
	if len(h) > 0 {
		h[i] = p
	}
}

// push adds p to the heap h and moves it up to its place.
func push(h []pair, p pair) []pair {
	h = append(h, p)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if h[up].key <= p.key {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = p
	return h
}

// Find returns the m nearest substitute k-mers of root (a k-mer of length k)
// under the expense table e, sorted by (distance, id): one AppendFind on a
// fresh Finder. A loop over many roots should hold a Finder instead.
func Find(root kmer.ID, k int, e *scoring.Expense, m int) ([]Neighbor, error) {
	var f Finder
	if err := f.init(k, e, m); err != nil || m <= 0 {
		return nil, err
	}
	return f.AppendFind(make([]Neighbor, 0, m), root), nil
}

// ClearCache does nothing: there is no cache. It remains because benchmark/
// calls it and a PR that changes other code cannot edit benchmark/ (ROADMAP
// item 7(e) removes the calls, then this).
func ClearCache() {}

// FindNaive is a brute-force reference: it enumerates every k-mer whose
// differing positions hold standard amino acids, computes distances
// directly, and returns the m nearest by (distance, id). Exponential in k;
// for tests and ablation benchmarks only.
func FindNaive(root kmer.ID, k int, e *scoring.Expense, m int) ([]Neighbor, error) {
	if k <= 0 || k > kmer.MaxK {
		return nil, fmt.Errorf("subkmer: k=%d out of range [1,%d]", k, kmer.MaxK)
	}
	if m <= 0 {
		return nil, nil
	}
	rootBases := kmer.Decode(root, k)
	var all []Neighbor
	var rec func(pos int, id kmer.ID, dist int, changed bool)
	rec = func(pos int, id kmer.ID, dist int, changed bool) {
		if pos == k {
			if changed {
				all = append(all, Neighbor{ID: id, Dist: dist})
			}
			return
		}
		// Keep the root base.
		rec(pos+1, id, dist, changed)
		// Or substitute it with any standard amino acid.
		for _, sub := range e.Rows[rootBases[pos]] {
			rec(pos+1, kmer.SetBase(id, k, pos, sub.Base), dist+sub.Expense, true)
		}
	}
	rec(0, root, 0, false)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > m {
		all = all[:m]
	}
	return all, nil
}
