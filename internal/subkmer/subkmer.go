// Package subkmer computes the m nearest substitute k-mers of a k-mer under
// a substitution matrix — the paper's Algorithms 1-3 (Section IV-B).
//
// The distance of a substitute k-mer q from the root r is the total score
// expense sum_i (C[r_i][r_i] - C[r_i][q_i]) over substituted positions: the
// score lost relative to an exact match. Because BLOSUM-style matrices have
// non-uniform scores, the m nearest neighbors are not necessarily
// single-substitution k-mers (the paper's AAC example: TTC at distance 8
// beats every AA* single substitution).
//
// The search explores an implicit tree: every node generates children by
// substituting one of its "free" positions; a child created by substituting
// position i keeps only positions > i free, so every multi-substitution
// k-mer is produced exactly once along its position-sorted path (the paper's
// acyclic, branching-factor-(|Σ|-1) exploration). The answers found so far
// and the best candidates that can still join them sit in one sorted array of
// at most m entries, which gives O(1) access to both the next node to
// finalize (first pending) and the pruning bound (last).
//
// The pruning is exact when every substitution costs something, which holds
// for every row of a standard residue (and of '*'). The B, Z and X rows have
// zero or negative expenses (B->D, Z->E cost 0; X->anything gains): a child
// can then tie with or undercut its parent after the parent was finalized, and
// the list is the search's answer rather than the true m nearest. The
// pipeline never searches such a root: k-mers holding an ambiguity code are
// skipped at extraction.
//
// One search costs about a microsecond at m = 10 (two at m = 25) and
// allocates nothing (Finder), so no caller remembers results: not across
// ranks, not across runs, not on disk.
package subkmer

import (
	"fmt"
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

// candidate is a generated substitute k-mer. Positions from..k-1 are still
// free for further substitution: only positions to the right of the last
// substituted one stay free, which makes the generation a tree.
type candidate struct {
	id   uint64
	dist int32
	from uint8
}

// frontier is one lazily-advanced substitution stream in explore:
// "substitute position pos of the node with its sid-th cheapest replacement".
type frontier struct {
	cost int32 // dist(node) + expense of this substitution
	pos  uint8
	sid  uint8
}

func candLess(a, b candidate) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// Finder is the reusable state of the m-nearest search for one (k, expense
// table, m): Algorithm 1 (FINDSUBKMERS) with Algorithms 2-3 inlined as
// explore/offer. After its candidate array has grown to m entries — at
// construction for m <= 64 — a search allocates nothing. Not safe for
// concurrent use; give each goroutine its own.
type Finder struct {
	k, m int
	e    *scoring.Expense
	pow  [kmer.MaxK]uint64 // pow[pos] = 24^(k-1-pos), the id weight of position pos

	// Per root, decoded once.
	rows [kmer.MaxK][]scoring.Sub // expense row of the root's base at pos, cheapest first
	own  [kmer.MaxK]uint64        // what the root's base at pos contributes to an id

	// The bounded m-nearest set: cand[:head] are the final answers,
	// cand[head:] the pending candidates sorted by (dist, id), and only m of
	// the two can ever be returned, so len(cand) <= m.
	cand []candidate
	head int
}

// NewFinder returns a Finder of the m nearest substitutes of k-mers of
// length k under the expense table e.
func NewFinder(k int, e *scoring.Expense, m int) (*Finder, error) {
	if k <= 0 || k > kmer.MaxK {
		return nil, fmt.Errorf("subkmer: k=%d out of range [1,%d]", k, kmer.MaxK)
	}
	m = max(m, 0)
	f := &Finder{k: k, m: m, e: e, cand: make([]candidate, 0, min(m, 64))}
	w := uint64(1)
	for pos := k - 1; pos >= 0; pos-- {
		f.pow[pos] = w
		w *= alphabet.Size
	}
	return f, nil
}

// AppendFind appends to dst the m nearest substitute k-mers of root, sorted
// by (distance, id), and returns the extended slice. The root itself is not
// included. Fewer than m neighbors are appended only when the candidate
// space is smaller than m.
func (f *Finder) AppendFind(dst []Neighbor, root kmer.ID) []Neighbor {
	if f.m == 0 {
		return dst
	}
	rest := uint64(root)
	for pos := f.k - 1; pos >= 0; pos-- {
		base := rest % alphabet.Size
		rest /= alphabet.Size
		f.rows[pos] = f.e.Rows[base]
		f.own[pos] = base * f.pow[pos]
	}
	f.cand, f.head = f.cand[:0], 0
	f.explore(candidate{id: uint64(root)})
	for f.head < len(f.cand) {
		next := f.cand[f.head]
		f.head++
		dst = append(dst, Neighbor{ID: kmer.ID(next.id), Dist: int(next.dist)})
		if f.head == f.m {
			break // m answers: no child can be returned, and none is pending to evict
		}
		f.explore(next)
	}
	return dst
}

// explore generates the children of node p in increasing cost and offers
// them to the m-nearest set (Algorithm 2, EXPLORE, with Algorithm 3's
// MAKENEWSUBK inlined). It stops as soon as the next cheapest child cannot
// beat the current m-th nearest k-mer. The set it leaves is the m smallest of
// the old set and all children whatever order equal-cost streams are taken
// in, so the frontier is a plain array scanned for its minimum.
//
// The set is full at m entries answers included, not at m pending ones: once
// head answers are final only m-head more can be returned, so a pending
// candidate ranked below m-head in (dist, id) order can only sink further (a
// pop removes one entry ahead of it and one from the budget; an admitted
// child only gets ahead of it) and is never returned. Bounding the pending
// set at m-head therefore keeps, at every step, exactly the first m-head
// entries of what an m-pending set would hold: every child the tighter bound
// skips or evicts sorts after that prefix, and every pop takes the same
// minimum. That holds for any expense row, ties and the B/Z/X rows included,
// since it compares only (dist, id) orders.
func (f *Finder) explore(p candidate) {
	var fr [kmer.MaxK]frontier
	n := 0
	for pos := int(p.from); pos < f.k; pos++ {
		if row := f.rows[pos]; len(row) > 0 {
			fr[n] = frontier{cost: p.dist + int32(row[0].Expense), pos: uint8(pos)}
			n++
		}
	}
	for n > 0 {
		best := 0
		for i := 1; i < n; i++ {
			if fr[i].cost < fr[best].cost {
				best = i
			}
		}
		next := &fr[best]
		// Prune: accept only children that can still displace the current
		// worst candidate; an equal-distance child is offered so ties
		// resolve deterministically by ID.
		if len(f.cand) >= f.m && next.cost > f.cand[len(f.cand)-1].dist {
			return
		}
		pos := int(next.pos)
		row := f.rows[pos]
		// pos is free in p, so it still holds the root's base there. Keeping
		// only positions right of pos free gives one path per substitute.
		f.offer(candidate{
			id:   p.id - f.own[pos] + uint64(row[next.sid].Base)*f.pow[pos],
			dist: next.cost,
			from: next.pos + 1,
		})
		if next.sid++; int(next.sid) < len(row) {
			next.cost = p.dist + int32(row[next.sid].Expense)
		} else {
			n--
			fr[best] = fr[n]
		}
	}
}

// offer admits a child into the bounded m-nearest set, evicting the current
// worst pending candidate when full. The position-sorted tree generates every
// substitute k-mer exactly once, so no duplicate check is needed.
func (f *Finder) offer(c candidate) {
	if len(f.cand) >= f.m {
		if !candLess(c, f.cand[len(f.cand)-1]) {
			return
		}
		f.cand = f.cand[:len(f.cand)-1]
	}
	f.cand = append(f.cand, c)
	i := len(f.cand) - 1
	for ; i > f.head && candLess(c, f.cand[i-1]); i-- {
		f.cand[i] = f.cand[i-1]
	}
	f.cand[i] = c
}

// Find returns the m nearest substitute k-mers of root (a k-mer of length k)
// under the expense table e, sorted by (distance, id): one AppendFind on a
// fresh Finder. A loop over many roots should hold a Finder instead.
func Find(root kmer.ID, k int, e *scoring.Expense, m int) ([]Neighbor, error) {
	f, err := NewFinder(k, e, m)
	if err != nil || m <= 0 {
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
