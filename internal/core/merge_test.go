package core

import (
	"math/rand"
	"sort"
	"testing"
)

// randOverlap builds an Overlap with 0-2 distinct seeds in canonical
// seedLess order — the invariant every Overlap in the system maintains.
func randOverlap(rng *rand.Rand) Overlap {
	o := Overlap{Count: int32(rng.Intn(100) + 1)}
	n := rng.Intn(3)
	seen := map[SeedPos]bool{}
	for len(seen) < n {
		seen[SeedPos{
			PosR: int32(rng.Intn(4)),
			PosC: int32(rng.Intn(4)),
			Dist: int32(rng.Intn(3)),
		}] = true
	}
	for s := range seen {
		o.Seeds[o.NumSeeds] = s
		o.NumSeeds++
	}
	sort.Slice(o.Seeds[:o.NumSeeds], func(i, j int) bool {
		return seedLess(o.Seeds[i], o.Seeds[j])
	})
	return o
}

// mergeOverlapSort is the reference MergeOverlap is held bit-identical to:
// concatenate, sort, take the first two distinct. It is the merge as first
// written (one slice and one sort.Slice per semiring add); keep it naive.
func mergeOverlapSort(x, y Overlap) Overlap {
	out := Overlap{Count: x.Count + y.Count}
	var all []SeedPos
	all = append(all, x.Seeds[:x.NumSeeds]...)
	all = append(all, y.Seeds[:y.NumSeeds]...)
	sort.Slice(all, func(i, j int) bool { return seedLess(all[i], all[j]) })
	for _, s := range all {
		if out.NumSeeds > 0 && out.Seeds[out.NumSeeds-1] == s {
			continue // duplicate seed
		}
		out.Seeds[out.NumSeeds] = s
		out.NumSeeds++
		if out.NumSeeds == 2 {
			break
		}
	}
	return out
}

// TestMergeOverlapMatchesSort holds the allocation-free two-way merge
// bit-identical to the concatenate-sort-dedup reference across a dense
// sample of the small-coordinate space (tiny ranges force heavy seed
// collisions, the interesting case for dedup and ordering).
func TestMergeOverlapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		x, y := randOverlap(rng), randOverlap(rng)
		got, want := MergeOverlap(x, y), mergeOverlapSort(x, y)
		if got != want {
			t.Fatalf("MergeOverlap(%+v, %+v) = %+v, sort reference = %+v", x, y, got, want)
		}
	}
}

// TestMergeOverlapAllocFree pins the hot-loop property the rewrite
// exists for: zero allocations per semiring add.
func TestMergeOverlapAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y := randOverlap(rng), randOverlap(rng)
	var sink Overlap
	allocs := testing.AllocsPerRun(100, func() {
		sink = MergeOverlap(x, y)
	})
	if allocs != 0 {
		t.Fatalf("MergeOverlap allocates %.1f times per call, want 0", allocs)
	}
	_ = sink
}
