// Package cc computes connected components of the protein similarity graph
// with a weighted-union union-find. The paper's Table II evaluates using
// components directly as protein families, as a cheap alternative to Markov
// clustering.
package cc

import "sort"

// UnionFind is a disjoint-set forest with union by size and path halving.
type UnionFind struct {
	parent []int32
	size   []int32
}

// New creates n singleton sets.
func New(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	p := int32(x)
	for uf.parent[p] != p {
		uf.parent[p] = uf.parent[uf.parent[p]] // path halving
		p = uf.parent[p]
	}
	return int(p)
}

// Union merges the sets of a and b, returning true if they were distinct.
func (uf *UnionFind) Union(a, b int) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = int32(ra)
	uf.size[ra] += uf.size[rb]
	return true
}

// Components returns the clusters as slices of member indices; each cluster
// is sorted and clusters are ordered by their smallest member, so the output
// is deterministic.
func (uf *UnionFind) Components() [][]int {
	byRoot := make(map[int][]int)
	for i := range uf.parent {
		r := uf.Find(i)
		byRoot[r] = append(byRoot[r], i) // members appear in increasing order
	}
	out := make([][]int, 0, len(byRoot))
	for _, members := range byRoot {
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// FromEdges builds components of an n-node graph from an edge list given as
// (r[i], c[i]) pairs.
func FromEdges(n int, rows, cols []int64) [][]int {
	uf := New(n)
	for i := range rows {
		uf.Union(int(rows[i]), int(cols[i]))
	}
	return uf.Components()
}
