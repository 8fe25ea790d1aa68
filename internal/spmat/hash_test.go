package spmat

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// capNNZ keeps a requested nonzero count drawable: randomTriples rejects
// duplicates, so asking for more distinct cells than rows*cols would spin.
func capNNZ(nnz int, rows, cols Index) int {
	if cells := rows * cols; Index(nnz) > cells/2 {
		return int(cells / 2)
	}
	return nnz
}

// aColIndex is the map the reference kernel below resolves A's columns with.
func aColIndex[A any](a *DCSC[A]) map[Index]int {
	aCol := make(map[Index]int, len(a.JC))
	for c, col := range a.JC {
		aCol[col] = c
	}
	return aCol
}

// hashRangeMap is the hash kernel as first written (per-column
// map[Index]C + clear + sort.Slice), kept verbatim as the reference the
// open-addressing accumulator is fuzzed against. It shares nothing with
// hashRange, not even the A-column lookup; keep it naive.
func hashRangeMap[A, B, C any](a *DCSC[A], b *DCSC[B], aCol map[Index]int,
	sr Semiring[A, B, C], lo, hi int) segment[C] {

	var out segment[C]
	acc := make(map[Index]C)
	var rows []Index
	for cb := lo; cb < hi; cb++ {
		j := b.JC[cb]
		clear(acc)
		rows = rows[:0]
		for kb := b.CP[cb]; kb < b.CP[cb+1]; kb++ {
			k := b.IR[kb]
			ca, ok := aCol[k]
			if !ok {
				continue
			}
			bv := b.Vals[kb]
			for ka := a.CP[ca]; ka < a.CP[ca+1]; ka++ {
				i := a.IR[ka]
				contrib := sr.Multiply(i, j, a.Vals[ka], bv)
				out.flops++
				if old, seen := acc[i]; seen {
					acc[i] = sr.Add(old, contrib)
				} else {
					acc[i] = contrib
					rows = append(rows, i)
				}
			}
		}
		if len(rows) == 0 {
			continue
		}
		sort.Slice(rows, func(x, y int) bool { return rows[x] < rows[y] })
		out.jc = append(out.jc, j)
		out.cp = append(out.cp, len(out.ir))
		for _, i := range rows {
			out.ir = append(out.ir, i)
			out.vals = append(out.vals, acc[i])
		}
	}
	return out
}

// spGEMMHashMap computes A·B serially with the map-based reference kernel.
func spGEMMHashMap[A, B, C any](a *DCSC[A], b *DCSC[B], sr Semiring[A, B, C]) (*DCSC[C], Stats, error) {
	if a.NumCols != b.NumRows {
		return nil, Stats{}, fmt.Errorf("spmat: SpGEMM inner dim %d vs %d", a.NumCols, b.NumRows)
	}
	if len(b.JC) == 0 {
		return Empty[C](a.NumRows, b.NumCols), Stats{}, nil
	}
	out, stats := hashRangeMap(a, b, aColIndex(a), sr, 0, len(b.JC)).whole(a.NumRows, b.NumCols)
	return out, stats, nil
}

// TestHashOpenMatchesMapFuzz pits the open-addressing accumulator against
// the map-based reference kernel on random matrices: structure, values and
// Stats.Flops must be identical on every trial. Shapes sweep from dense-ish
// squares to hypersparse blocks (the DCSC regime where the k-mer dimension
// dwarfs the nonzeros), which also exercises both sides of the aColLookup
// dense/probe-table split.
func TestHashOpenMatchesMapFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 60
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		var n, k, m Index
		var nnz int
		switch trial % 3 {
		case 0: // small dense-ish
			n, k, m = Index(rng.Intn(40)+1), Index(rng.Intn(40)+1), Index(rng.Intn(40)+1)
			nnz = rng.Intn(300)
		case 1: // rectangular, moderate sparsity
			n, k, m = Index(rng.Intn(200)+1), Index(rng.Intn(100)+1), Index(rng.Intn(200)+1)
			nnz = rng.Intn(500)
		default: // hypersparse: huge inner dimension, few nonzeros
			n, k, m = Index(rng.Intn(100)+1), Index(rng.Int63n(1<<40)+1), Index(rng.Intn(100)+1)
			nnz = rng.Intn(120)
		}
		a, _ := FromTriples(n, k, randomTriples(rng, n, k, capNNZ(nnz, n, k)), nil)
		b, _ := FromTriples(k, m, randomTriples(rng, k, m, capNNZ(nnz, k, m)), nil)

		want, wantStats, err := spGEMMHashMap(a, b, Arithmetic)
		if err != nil {
			t.Fatalf("trial %d: map kernel: %v", trial, err)
		}
		got, gotStats, err := SpGEMM(a, b, Arithmetic, SpGEMMOpts{})
		if err != nil {
			t.Fatalf("trial %d: open kernel: %v", trial, err)
		}
		if !Equal(want, got, func(x, y float64) bool { return x == y }) {
			t.Fatalf("trial %d (%dx%d · %dx%d, nnz %d): open-addressing product differs from map product",
				trial, n, k, k, m, nnz)
		}
		if wantStats.Flops != gotStats.Flops {
			t.Fatalf("trial %d: flops %d (open) != %d (map)", trial, gotStats.Flops, wantStats.Flops)
		}
		// The heap kernel shares the new aColLookup; keep it in the net.
		heap, heapStats, err := spGEMMHeap(a, b, Arithmetic)
		if err != nil {
			t.Fatalf("trial %d: heap kernel: %v", trial, err)
		}
		if !Equal(want, heap, func(x, y float64) bool { return x == y }) {
			t.Fatalf("trial %d: heap product differs from map product", trial)
		}
		if heapStats.Flops != wantStats.Flops {
			t.Fatalf("trial %d: heap flops %d != %d", trial, heapStats.Flops, wantStats.Flops)
		}
	}
}

// TestHashOpenMatchesMapCountingSemiring repeats the differential on the
// Counting semiring (the overlap-detection product), whose Add is the one
// the pipeline actually accumulates k-mer counts with.
func TestHashOpenMatchesMapCountingSemiring(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	sr := Counting[float64, float64]()
	for trial := 0; trial < 20; trial++ {
		n := Index(rng.Intn(60) + 2)
		k := Index(rng.Intn(60) + 2)
		a, _ := FromTriples(n, k, randomTriples(rng, n, k, capNNZ(rng.Intn(400), n, k)), nil)
		b, _ := FromTriples(k, n, randomTriples(rng, k, n, capNNZ(rng.Intn(400), k, n)), nil)
		want, ws, err := spGEMMHashMap(a, b, sr)
		if err != nil {
			t.Fatal(err)
		}
		got, gs, err := SpGEMM(a, b, sr, SpGEMMOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(want, got, func(x, y int64) bool { return x == y }) || ws.Flops != gs.Flops {
			t.Fatalf("trial %d: counting-semiring products differ", trial)
		}
	}
}

// TestHashRangeAllocationStable verifies the serial hash path's allocations
// do not scale with the column count: the scratch (probe table, rows,
// pairing buffer) is reused across columns, so quadrupling the columns must
// not quadruple the allocations. The absolute count stays small — output
// arrays grow by amortized doubling — where the map kernel paid per-column
// sort.Slice closures at minimum.
func TestHashRangeAllocationStable(t *testing.T) {
	build := func(cols Index) (*DCSC[float64], *DCSC[float64]) {
		rng := rand.New(rand.NewSource(9))
		a, _ := FromTriples(100, 100, randomTriples(rng, 100, 100, 800), nil)
		b, _ := FromTriples(100, cols, randomTriples(rng, 100, cols, int(cols)*8), nil)
		return a, b
	}
	allocs := func(a, b *DCSC[float64]) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := SpGEMM(a, b, Arithmetic, SpGEMMOpts{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a1, b1 := build(50)
	a4, b4 := build(200)
	small, large := allocs(a1, b1), allocs(a4, b4)
	// Amortized-zero per column: the 4x-column run may allocate more in
	// absolute terms (bigger outputs, more doubling steps) but nowhere near
	// 4x. The map kernel's >= 2 allocs/column would blow straight past this.
	if large > 2*small+40 {
		t.Fatalf("allocations scale with columns: %d cols -> %.0f allocs, %d cols -> %.0f allocs",
			len(b1.JC), small, len(b4.JC), large)
	}
}
