package align

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
)

// TestWFAPackedMatchesUnpacked proves the packed stride-4 wavefront kernel
// bit-identical to the four-slice reference across random pairs
// spanning identity, length, and indel structure: every Result field and
// the cumulative CellsComputed must agree call for call on the same
// instance (which also exercises arena reuse on both sides).
func TestWFAPackedMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	packed, _ := NewKernel("wfa")
	unpacked := newWFAUnpacked()
	p := DefaultParams()

	type pairCase struct {
		a, b []alphabet.Code
	}
	var cases []pairCase
	for _, n := range []int{1, 3, 20, 80, 250} {
		for _, ident := range []float64{1.0, 0.95, 0.80, 0.55} {
			for _, indels := range []int{0, 2, 6} {
				x := randomSeq(rng, n)
				y := mutateSeq(rng, x, 1-ident, indels)
				cases = append(cases, pairCase{x, y})
			}
		}
	}
	// Edge shapes: empty sides, gross length mismatch.
	cases = append(cases,
		pairCase{nil, randomSeq(rng, 10)},
		pairCase{randomSeq(rng, 10), nil},
		pairCase{randomSeq(rng, 5), randomSeq(rng, 120)},
		pairCase{randomSeq(rng, 120), randomSeq(rng, 5)},
	)

	for i, c := range cases {
		got, err1 := packed.Align(c.a, c.b, nil, p)
		want, err2 := unpacked.Align(c.a, c.b, nil, p)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("case %d (la=%d lb=%d): error mismatch: packed %v, unpacked %v",
				i, len(c.a), len(c.b), err1, err2)
		}
		if got != want {
			t.Fatalf("case %d (la=%d lb=%d): packed %+v != unpacked %+v",
				i, len(c.a), len(c.b), got, want)
		}
		if pc, uc := packed.CellsComputed(), unpacked.CellsComputed(); pc != uc {
			t.Fatalf("case %d: cumulative cells %d (packed) != %d (unpacked)", i, pc, uc)
		}
	}
}

// TestWFAPackedAllocationFree verifies the packed kernel's steady state: a
// warm instance aligns further pairs without allocating (the arena and
// wave slices are fully recycled across Align calls).
func TestWFAPackedAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k, _ := NewKernel("wfa")
	p := DefaultParams()
	x := randomSeq(rng, 200)
	y := mutateSeq(rng, x, 0.15, 3)
	// Warm up: grow the arena and the per-penalty wave slices.
	for i := 0; i < 3; i++ {
		if _, err := k.Align(x, y, nil, p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := k.Align(x, y, nil, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm packed wfa kernel allocates %.1f times per Align; want 0", allocs)
	}
}
