// Package parallel is the intra-rank shared-memory execution layer: a
// deterministic chunked parallel-for over a bounded set of goroutines. PASTIS runs
// one MPI rank per node with OpenMP threads inside (paper Section VI; the
// follow-up extreme-scale paper makes hybrid parallelism the centerpiece).
// This package is the Go analog: each simulated rank fans its column chunks
// and alignment batches out to a small set of goroutines.
//
// Determinism contract: every helper here partitions work into chunks whose
// boundaries depend only on the problem size and the requested chunk count —
// never on scheduling — and callers merge per-chunk results in chunk order.
// Output is therefore bit-identical for any worker count, which is what lets
// the pipeline keep the paper's reproducibility property while threading its
// hot loops.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a Threads configuration knob: values <= 0 select all
// host cores (GOMAXPROCS), anything else is taken as-is. The returned count
// may exceed the host's cores; Workers applies that bound.
func Resolve(threads int) int {
	if threads > 0 {
		return threads
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns how many goroutines to actually launch for a requested
// thread count: Resolve(threads) capped by GOMAXPROCS. Launching more would
// only add scheduling overhead; correctness never depends on the cap because
// chunk boundaries are scheduling-independent.
func Workers(threads int) int {
	t := Resolve(threads)
	if g := runtime.GOMAXPROCS(0); t > g {
		return g
	}
	return t
}

// ChunkRange returns the half-open slice [lo,hi) of [0,n) covered by chunk i
// of nchunks. The split is ceiling-based, mirroring dmat.BlockRange: every
// chunk except possibly the trailing ones has size ⌈n/nchunks⌉.
func ChunkRange(n, nchunks, i int) (lo, hi int) {
	size := (n + nchunks - 1) / nchunks
	lo = size * i
	if lo > n {
		lo = n
	}
	hi = size * (i + 1)
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ForChunks splits [0,n) into nchunks contiguous chunks and invokes
// body(worker, chunk, lo, hi) once per nonempty chunk on at most
// Workers(threads) goroutines, one per worker index. Chunks are handed out
// dynamically so uneven chunks balance, but chunk boundaries are fixed by
// (n, nchunks) alone: callers that write per-chunk results into a slot
// array indexed by chunk and merge in chunk order get
// scheduling-independent output. A worker index is never passed to two
// concurrent bodies, so body may keep lock-free per-worker scratch state
// (e.g. reusable alignment DP buffers) in a slice indexed by it.
func ForChunks(threads, n, nchunks int, body func(worker, chunk, lo, hi int)) {
	if n <= 0 {
		return
	}
	if nchunks < 1 {
		nchunks = 1
	}
	if nchunks > n {
		nchunks = n
	}
	workers := Workers(threads)
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		for c := 0; c < nchunks; c++ {
			lo, hi := ChunkRange(n, nchunks, c)
			body(0, c, lo, hi)
		}
		return
	}
	// Each worker pulls chunk indices from the shared counter until none
	// remain; worker w is the only goroutine that ever passes w to body.
	var next atomic.Int64
	var done sync.WaitGroup
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer done.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo, hi := ChunkRange(n, nchunks, c)
				body(worker, c, lo, hi)
			}
		}(w)
	}
	done.Wait()
}

// For is ForChunks with one chunk per worker: the classic static parallel-for.
func For(threads, n int, body func(worker, chunk, lo, hi int)) {
	ForChunks(threads, n, Workers(threads), body)
}
