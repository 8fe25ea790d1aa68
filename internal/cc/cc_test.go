package cc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicUnion(t *testing.T) {
	uf := New(5)
	if n := len(uf.Components()); n != 5 {
		t.Fatalf("initial count %d", n)
	}
	if !uf.Union(0, 1) {
		t.Error("first union should merge")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union should not merge")
	}
	uf.Union(2, 3)
	if n := len(uf.Components()); n != 3 {
		t.Errorf("count = %d, want 3", n)
	}
	if uf.Find(0) != uf.Find(1) || uf.Find(2) != uf.Find(3) {
		t.Error("find disagrees with unions")
	}
	if uf.Find(4) == uf.Find(0) {
		t.Error("4 should be isolated")
	}
}

func TestComponentsDeterministicAndSorted(t *testing.T) {
	uf := New(6)
	uf.Union(5, 0)
	uf.Union(3, 2)
	uf.Union(0, 3)
	comps := uf.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components", len(comps))
	}
	// First component must start with the smallest global index.
	if comps[0][0] != 0 || len(comps[0]) != 4 {
		t.Errorf("component 0 = %v", comps[0])
	}
	for _, c := range comps {
		for i := 1; i < len(c); i++ {
			if c[i] <= c[i-1] {
				t.Errorf("component not sorted: %v", c)
			}
		}
	}
}

func TestFromEdges(t *testing.T) {
	comps := FromEdges(7, []int64{0, 1, 4}, []int64{1, 2, 5})
	if len(comps) != 4 { // {0,1,2}, {3}, {4,5}, {6}
		t.Fatalf("got %d components: %v", len(comps), comps)
	}
}

// Property: component count equals n minus the number of successful unions,
// and total membership is always n.
func TestComponentInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		uf := New(n)
		merges := 0
		for i := 0; i < rng.Intn(200); i++ {
			if uf.Union(rng.Intn(n), rng.Intn(n)) {
				merges++
			}
		}
		comps := uf.Components()
		total := 0
		for _, c := range comps {
			total += len(c)
		}
		return len(comps) == n-merges && total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: transitivity — if a~b and b~c then Find(a) == Find(c).
func TestTransitivityProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		uf := New(64)
		for i := 0; i+1 < len(pairs); i += 2 {
			uf.Union(int(pairs[i])%64, int(pairs[i+1])%64)
		}
		for i := 0; i+3 < len(pairs); i += 2 {
			a, b := int(pairs[i])%64, int(pairs[i+1])%64
			c := int(pairs[i+3]) % 64
			if uf.Find(a) == uf.Find(b) && uf.Find(b) == uf.Find(c) {
				if uf.Find(a) != uf.Find(c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
