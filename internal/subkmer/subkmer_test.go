package subkmer

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/kmer"
	"repro/internal/scoring"
)

// Dist recomputes the substitution distance between a root k-mer and a
// substitute under the expense table (for verification).
func Dist(root, sub kmer.ID, k int, e *scoring.Expense) (int, error) {
	rb, sb := kmer.Decode(root, k), kmer.Decode(sub, k)
	total := 0
	for i := 0; i < k; i++ {
		if rb[i] == sb[i] {
			continue
		}
		found := false
		for _, s := range e.Rows[rb[i]] {
			if s.Base == sb[i] {
				total += s.Expense
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("subkmer: %c->%c is not a legal substitution",
				alphabet.Decode(rb[i]), alphabet.Decode(sb[i]))
		}
	}
	return total, nil
}

func mustID(t testing.TB, s string) kmer.ID {
	t.Helper()
	codes, err := alphabet.EncodeSeq([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return kmer.Encode(codes)
}

// The paper's worked example: for root AAC under BLOSUM62, the closest
// substitute is SAC or ASC (expense 3), and the two-substitution k-mers of
// the form {T|C|G}{T|C|G}C (distance 8) are closer than any AA* single
// substitution of C (distance >= 10).
func TestPaperExampleAAC(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	root := mustID(t, "AAC")
	// m=60 covers every k-mer up to distance 7 (47 of them) plus part of the
	// distance-8 tier, so SSC (6) and TTC (8, by ID order) must both appear.
	nbrs, err := Find(root, 3, e, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 60 {
		t.Fatalf("got %d neighbors, want 60", len(nbrs))
	}
	if d0 := nbrs[0].Dist; d0 != 3 {
		t.Errorf("closest neighbor distance = %d, want 3 (A->S)", d0)
	}
	byName := map[string]int{}
	for _, n := range nbrs {
		byName[kmer.String(n.ID, 3)] = n.Dist
	}
	if d, ok := byName["SAC"]; !ok || d != 3 {
		t.Errorf("SAC should be a neighbor at distance 3, got %v %v", d, ok)
	}
	if d, ok := byName["ASC"]; !ok || d != 3 {
		t.Errorf("ASC should be a neighbor at distance 3, got %v %v", d, ok)
	}
	if d, ok := byName["SSC"]; !ok || d != 6 {
		t.Errorf("SSC should be a neighbor at distance 6 (two A->S), got %v %v", d, ok)
	}
	// TTC (two A->T substitutions, expense 4 each) sits at distance 8 —
	// closer than any substitution of C (>= 10), the paper's key point that
	// m-nearest neighbors can be multiple hops away.
	if d, err := Dist(root, mustID(t, "TTC"), 3, e); err != nil || d != 8 {
		t.Errorf("Dist(AAC,TTC) = %d, %v; want 8", d, err)
	}
	// No substitution of C should appear before distance 10 (cheapest C sub
	// is C->M at 9 - (-1) = 10); with 30 nearest all must keep C intact or
	// sit at distance >= 8.
	for _, n := range nbrs {
		if n.Dist < 10 && kmer.BaseAt(n.ID, 3, 2) != alphabet.Encode('C') {
			t.Errorf("neighbor %s at distance %d substituted C too cheaply",
				kmer.String(n.ID, 3), n.Dist)
		}
	}
}

func TestRootExcluded(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	root := mustID(t, "WAC")
	nbrs, err := Find(root, 3, e, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nbrs {
		if n.ID == root {
			t.Fatal("root must not be its own neighbor")
		}
	}
}

func TestSortedAndUnique(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	root := mustID(t, "MKV")
	nbrs, err := Find(root, 3, e, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[kmer.ID]bool{}
	for i, n := range nbrs {
		if seen[n.ID] {
			t.Errorf("duplicate neighbor %s", kmer.String(n.ID, 3))
		}
		seen[n.ID] = true
		if i > 0 {
			prev := nbrs[i-1]
			if n.Dist < prev.Dist || (n.Dist == prev.Dist && n.ID < prev.ID) {
				t.Errorf("neighbors not sorted at %d: (%d,%d) then (%d,%d)",
					i, prev.Dist, prev.ID, n.Dist, n.ID)
			}
		}
	}
}

func TestDistancesVerify(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	root := mustID(t, "HPLC")
	nbrs, err := Find(root, 4, e, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nbrs {
		d, err := Dist(root, n.ID, 4, e)
		if err != nil {
			t.Fatalf("neighbor %s: %v", kmer.String(n.ID, 4), err)
		}
		if d != n.Dist {
			t.Errorf("neighbor %s reported dist %d, recomputed %d",
				kmer.String(n.ID, 4), n.Dist, d)
		}
	}
}

// The bounded search must agree exactly with brute-force enumeration,
// including tie order, for random roots and both scoring models.
func TestMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, mtx := range []*scoring.Matrix{scoring.BLOSUM62, scoring.Identity} {
		e := scoring.NewExpense(mtx)
		for trial := 0; trial < 40; trial++ {
			k := 2 + rng.Intn(2) // k in {2,3}: naive is 20^k
			codes := make([]alphabet.Code, k)
			for i := range codes {
				codes[i] = alphabet.Code(rng.Intn(scoring.StandardAACount))
			}
			root := kmer.Encode(codes)
			m := 1 + rng.Intn(40)

			got, err := Find(root, k, e, m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := FindNaive(root, k, e, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s root %s m=%d: got %d neighbors, want %d",
					mtx.Name, kmer.String(root, k), m, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s root %s m=%d: neighbor %d = {%s,%d}, want {%s,%d}",
						mtx.Name, kmer.String(root, k), m, i,
						kmer.String(got[i].ID, k), got[i].Dist,
						kmer.String(want[i].ID, k), want[i].Dist)
				}
			}
		}
	}
}

// Roots containing ambiguity codes are still handled: the ambiguous
// positions can be substituted (toward standard residues only).
func TestAmbiguousRoot(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	root := mustID(t, "AXC")
	nbrs, err := Find(root, 3, e, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FindNaive(root, 3, e, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != len(want) {
		t.Fatalf("got %d, want %d", len(nbrs), len(want))
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("neighbor %d mismatch: %v vs %v", i, nbrs[i], want[i])
		}
	}
}

func TestMZeroAndErrors(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	nbrs, err := Find(0, 3, e, 0)
	if err != nil || nbrs != nil {
		t.Errorf("m=0 should return nil, nil; got %v, %v", nbrs, err)
	}
	if _, err := Find(0, 0, e, 5); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Find(0, kmer.MaxK+1, e, 5); err == nil {
		t.Error("k too large should error")
	}
}

// m larger than the entire substitution space must terminate and return the
// whole space: for k=1 that is the 19 other standard amino acids.
func TestMExceedsSpace(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	root := mustID(t, "A")
	nbrs, err := Find(root, 1, e, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != scoring.StandardAACount-1 {
		t.Errorf("k=1 neighborhood size = %d, want %d", len(nbrs), scoring.StandardAACount-1)
	}
}

func TestDistErrors(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	// B is not a legal substitution target.
	root, sub := mustID(t, "AAA"), mustID(t, "ABA")
	if _, err := Dist(root, sub, 3, e); err == nil {
		t.Error("substitution to ambiguity code should be illegal")
	}
}

func BenchmarkFindM25K6(b *testing.B) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	root := mustID(b, "MKVLAW")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Find(root, 6, e, 25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindVsNaiveK3(b *testing.B) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	root := mustID(b, "MKV")
	b.Run("bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Find(root, 3, e, 25); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FindNaive(root, 3, e, 25); err != nil {
				b.Fatal(err)
			}
		}
	})
}
