package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestChunkRange(t *testing.T) {
	cases := []struct {
		n, q, i, lo, hi int
	}{
		{10, 3, 0, 0, 4},
		{10, 3, 1, 4, 8},
		{10, 3, 2, 8, 10},
		{4, 4, 3, 3, 4},
		{3, 4, 3, 3, 3}, // trailing empty chunk
		{0, 1, 0, 0, 0},
		{7, 1, 0, 0, 7},
	}
	for _, c := range cases {
		lo, hi := ChunkRange(c.n, c.q, c.i)
		if lo != c.lo || hi != c.hi {
			t.Errorf("ChunkRange(%d,%d,%d) = [%d,%d), want [%d,%d)",
				c.n, c.q, c.i, lo, hi, c.lo, c.hi)
		}
	}
	// Chunks must tile [0,n) exactly for a spread of shapes.
	for _, n := range []int{1, 2, 7, 16, 100, 101} {
		for _, q := range []int{1, 2, 3, 8, 100, 200} {
			next := 0
			for i := 0; i < q; i++ {
				lo, hi := ChunkRange(n, q, i)
				if lo != next || hi < lo || hi > n {
					t.Fatalf("ChunkRange(%d,%d,%d) = [%d,%d) does not tile (next=%d)",
						n, q, i, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("ChunkRange(%d,%d,·) covered only [0,%d)", n, q, next)
			}
		}
	}
}

func TestResolveAndWorkers(t *testing.T) {
	if Resolve(5) != 5 {
		t.Errorf("Resolve(5) = %d", Resolve(5))
	}
	if Resolve(0) < 1 || Resolve(-3) < 1 {
		t.Errorf("Resolve of auto must be >= 1")
	}
	if w := Workers(1000); w < 1 || w > 1000 {
		t.Errorf("Workers(1000) = %d", w)
	}
	if Workers(1) != 1 {
		t.Errorf("Workers(1) = %d", Workers(1))
	}
}

// ForChunks output must be identical for every thread count: same chunks,
// same coverage, regardless of scheduling. Worker indices stay in
// [0, Workers(threads)) and are never shared by two concurrent bodies, so
// an unsynchronized per-worker slice is safe (run with -race).
func TestForChunksDeterministicCoverage(t *testing.T) {
	const n, nchunks = 1000, 13
	reference := make([][2]int, nchunks)
	for c := 0; c < nchunks; c++ {
		lo, hi := ChunkRange(n, nchunks, c)
		reference[c] = [2]int{lo, hi}
	}
	for _, threads := range []int{1, 2, 3, 8, 64} {
		workers := Workers(threads)
		got := make([][2]int, nchunks)
		var mu sync.Mutex
		covered := make([]bool, n)
		busy := make([]atomic.Bool, workers)
		perWorker := make([]int, workers) // intentionally unsynchronized
		ForChunks(threads, n, nchunks, func(w, chunk, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("threads=%d: worker index %d outside [0,%d)", threads, w, workers)
				return
			}
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("threads=%d: worker %d ran two bodies concurrently", threads, w)
			}
			perWorker[w] += hi - lo
			got[chunk] = [2]int{lo, hi} // distinct chunk slots: no race
			mu.Lock()
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Errorf("threads=%d: index %d covered twice", threads, i)
				}
				covered[i] = true
			}
			mu.Unlock()
			busy[w].Store(false)
		})
		for i, ok := range covered {
			if !ok {
				t.Fatalf("threads=%d: index %d not covered", threads, i)
			}
		}
		for c := range reference {
			if got[c] != reference[c] {
				t.Errorf("threads=%d: chunk %d = %v, want %v", threads, c, got[c], reference[c])
			}
		}
		total := 0
		for _, c := range perWorker {
			total += c
		}
		if total != n {
			t.Errorf("threads=%d: per-worker counts sum to %d, want %d", threads, total, n)
		}
	}
}

// A parallel sum assembled in chunk order must be bit-identical to serial —
// the merge discipline every caller of ForChunks relies on.
func TestForChunksOrderedMerge(t *testing.T) {
	n := 10_000
	data := make([]float64, n)
	for i := range data {
		data[i] = 1.0 / float64(i+1)
	}
	serial := 0.0
	for _, v := range data {
		serial += v
	}
	for _, threads := range []int{1, 2, 8} {
		const nchunks = 7
		partial := make([]float64, nchunks)
		ForChunks(threads, n, nchunks, func(w, chunk, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += data[i]
			}
			partial[chunk] = s
		})
		merged := 0.0
		for _, s := range partial {
			merged += s
		}
		// Identical chunking => identical float association => identical bits.
		serialChunks := 0.0
		for c := 0; c < nchunks; c++ {
			lo, hi := ChunkRange(n, nchunks, c)
			s := 0.0
			for i := lo; i < hi; i++ {
				s += data[i]
			}
			serialChunks += s
		}
		if merged != serialChunks {
			t.Errorf("threads=%d: merged sum %v != serial chunked sum %v", threads, merged, serialChunks)
		}
	}
}

func TestForChunksEdgeCases(t *testing.T) {
	calls := 0
	ForChunks(4, 0, 8, func(w, c, lo, hi int) { calls++ })
	if calls != 0 {
		t.Errorf("n=0 must not call body")
	}
	// nchunks > n collapses to n chunks of size 1.
	var mu sync.Mutex
	seen := map[int]bool{}
	ForChunks(8, 3, 100, func(w, c, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		if hi-lo != 1 {
			t.Errorf("chunk [%d,%d) should be unit-sized", lo, hi)
		}
		seen[lo] = true
	})
	if len(seen) != 3 {
		t.Errorf("covered %d of 3", len(seen))
	}
	// For covers everything with one chunk per worker.
	total := atomic.Int64{}
	For(3, 10, func(w, c, lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != 10 {
		t.Errorf("For covered %d of 10", total.Load())
	}
}
