package subkmer

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/kmer"
	"repro/internal/scoring"
)

// allCodes is the whole alphabet: the B/Z/X/* rows — 20 targets each, some
// at zero or negative expense — are searched as well as the 20 standard ones.
var allCodes = func() []alphabet.Code {
	codes := make([]alphabet.Code, alphabet.Size)
	for i := range codes {
		codes[i] = alphabet.Code(i)
	}
	return codes
}()

// randomRoot draws a k-mer over the given codes.
func randomRoot(rng *rand.Rand, k int, codes []alphabet.Code) kmer.ID {
	var root [kmer.MaxK]alphabet.Code
	for i := 0; i < k; i++ {
		root[i] = codes[rng.Intn(len(codes))]
	}
	return kmer.Encode(root[:k])
}

func mustFinder(t testing.TB, k int, e *scoring.Expense, m int) *Finder {
	t.Helper()
	f, err := NewFinder(k, e, m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The search must agree exactly with brute-force enumeration, tie order
// included, for m from 1 to more than the candidate space holds, on every
// root it is exact for: those over codes whose substitutions all cost
// something (the 20 standard residues and '*' under BLOSUM62; see the package
// comment for B, Z and X, which TestFindDigestPinned covers instead).
func TestFinderMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mtx := range []*scoring.Matrix{scoring.BLOSUM62, scoring.Identity} {
		e := scoring.NewExpense(mtx)
		var codes []alphabet.Code
		for _, c := range allCodes {
			if e.Cheapest(c).Expense > 0 {
				codes = append(codes, c)
			}
		}
		if len(codes) < scoring.StandardAACount {
			t.Fatalf("%s: only %d codes have all-positive expense rows", mtx.Name, len(codes))
		}
		for k := 1; k <= 4; k++ {
			ms := []int{1, 10, 25}
			trials := 12
			if k < 4 {
				ms = append(ms, 10000) // more than the 21^3-1 candidates there are
			} else {
				trials = 2 // the naive side sorts some 20^4 candidates per root
			}
			for _, m := range ms {
				f := mustFinder(t, k, e, m)
				var got []Neighbor
				for trial := 0; trial < trials; trial++ {
					root := randomRoot(rng, k, codes)
					got = f.AppendFind(got[:0], root)
					want, err := FindNaive(root, k, e, m)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s root %s m=%d: %d neighbors, naive has %d; first difference at %d",
							mtx.Name, kmer.String(root, k), m, len(got), len(want), firstDiff(got, want))
					}
				}
			}
		}
	}
}

func firstDiff(a, b []Neighbor) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// findDigest is the FNV-1a hash of Find's (id, distance) lists over n seeded
// roots of length k drawn over all 24 codes.
func findDigest(t *testing.T, k, m, n int) uint64 {
	t.Helper()
	e := scoring.NewExpense(scoring.BLOSUM62)
	rng := rand.New(rand.NewSource(2020))
	h := fnv.New64a()
	var word [8]byte
	for i := 0; i < n; i++ {
		nbrs, err := Find(randomRoot(rng, k, allCodes), k, e, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range nbrs {
			binary.LittleEndian.PutUint64(word[:], uint64(nb.ID))
			h.Write(word[:])
			binary.LittleEndian.PutUint64(word[:], uint64(nb.Dist))
			h.Write(word[:])
		}
	}
	return h.Sum64()
}

// The digests were recorded at commit 5da923a, from the min-max-heap search
// this package had before Finder: every list, tie order included, is what
// that search returned.
func TestFindDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		m    int
		want uint64
	}{
		{10, 0xccd9c143a06a55f8},
		{25, 0xb16b5ce31a7dac07},
	} {
		if got := findDigest(t, 6, tc.m, 20000); got != tc.want {
			t.Errorf("k=6 m=%d: digest %#x, pinned %#x", tc.m, got, tc.want)
		}
	}
}

func TestFinderAllocationFree(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	f := mustFinder(t, 6, e, 25)
	rng := rand.New(rand.NewSource(3))
	roots := make([]kmer.ID, 64)
	for i := range roots {
		roots[i] = randomRoot(rng, 6, allCodes)
	}
	buf := f.AppendFind(nil, roots[0]) // warm: buf reaches its m entries here
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf = f.AppendFind(buf[:0], roots[i%len(roots)])
		i++
	})
	if allocs != 0 {
		t.Errorf("AppendFind into a warm buffer allocates %v times per call, want 0", allocs)
	}
}

// One Finder carried across roots must return what a fresh one does: nothing
// of a search survives into the next.
func TestFinderReuseMatchesFresh(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 10, 100} {
		reused := mustFinder(t, 5, e, m)
		for trial := 0; trial < 200; trial++ {
			root := randomRoot(rng, 5, allCodes)
			got := reused.AppendFind(nil, root)
			want := mustFinder(t, 5, e, m).AppendFind(nil, root)
			if !slices.Equal(got, want) {
				t.Fatalf("m=%d root %s: reused Finder differs from a fresh one at %d",
					m, kmer.String(root, 5), firstDiff(got, want))
			}
		}
	}
}

// AppendFind appends: what dst already holds stays, and m <= 0 adds nothing.
func TestFinderAppends(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	root := mustID(t, "MKV")
	keep := Neighbor{ID: 1, Dist: 2}
	got := mustFinder(t, 3, e, 5).AppendFind([]Neighbor{keep}, root)
	want, err := Find(root, 3, e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[0] != keep || !slices.Equal(got[1:], want) {
		t.Errorf("AppendFind onto a non-empty dst = %v, want %v then %v", got, keep, want)
	}
	if got := mustFinder(t, 3, e, 0).AppendFind(nil, root); len(got) != 0 {
		t.Errorf("m=0 appended %d neighbors", len(got))
	}
}

// The set holds the final answers and the pending candidates together, and
// only m of them can ever be returned: it never grows past m.
func TestFinderHoldsAtMostM(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	rng := rand.New(rand.NewSource(13))
	for _, m := range []int{1, 10, 100} {
		f := mustFinder(t, 6, e, m)
		var buf []Neighbor
		for trial := 0; trial < 300; trial++ {
			root := randomRoot(rng, 6, allCodes)
			buf = f.AppendFind(buf[:0], root)
			if len(f.cand) > m {
				t.Fatalf("m=%d root %s: the set holds %d candidates", m, kmer.String(root, 6), len(f.cand))
			}
		}
	}
}

// Finder must return, list for list, what twinFinder returns: every k from 1
// to 8, m from 1 to more than a short root's space holds, roots over all 24
// codes (the B/Z/X rows' zero and negative expenses included) and
// scoring.Identity, whose equal expenses make nearly every distance a tie.
func TestFinderMatchesFrozenTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, mtx := range []*scoring.Matrix{scoring.BLOSUM62, scoring.Identity} {
		e := scoring.NewExpense(mtx)
		for k := 1; k <= 8; k++ {
			for _, m := range []int{1, 2, 3, 10, 25, 100, 500} {
				f, twin := mustFinder(t, k, e, m), newTwinFinder(k, e, m)
				var got, want []Neighbor
				for trial := 0; trial < 300; trial++ {
					root := randomRoot(rng, k, allCodes)
					got, want = f.AppendFind(got[:0], root), twin.AppendFind(want[:0], root)
					if !slices.Equal(got, want) {
						t.Fatalf("%s root %s m=%d: %d neighbors, the twin has %d; first difference at %d",
							mtx.Name, kmer.String(root, k), m, len(got), len(want), firstDiff(got, want))
					}
				}
			}
		}
	}
}

// twinFinder is Finder as it stood before its set was bounded by the answers
// still owed (full at m pending candidates, len(cand) <= 2m): its code kept
// verbatim under other names, comments dropped, as the reference
// TestFinderMatchesFrozenTwin holds Finder to. It shares nothing with Finder,
// not even the candidate order; keep it as is.
type twinFinder struct {
	k, m int
	e    *scoring.Expense
	pow  [kmer.MaxK]uint64

	rows [kmer.MaxK][]scoring.Sub
	own  [kmer.MaxK]uint64

	cand []twinCandidate
	head int
}

type twinCandidate struct {
	id   uint64
	dist int32
	from uint8
}

type twinFrontier struct {
	cost int32
	pos  uint8
	sid  uint8
}

func twinCandLess(a, b twinCandidate) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

func newTwinFinder(k int, e *scoring.Expense, m int) *twinFinder {
	m = max(m, 0)
	f := &twinFinder{k: k, m: m, e: e, cand: make([]twinCandidate, 0, 2*min(m, 64))}
	w := uint64(1)
	for pos := k - 1; pos >= 0; pos-- {
		f.pow[pos] = w
		w *= alphabet.Size
	}
	return f
}

func (f *twinFinder) AppendFind(dst []Neighbor, root kmer.ID) []Neighbor {
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
	f.explore(twinCandidate{id: uint64(root)})
	for n := 0; n < f.m && f.head < len(f.cand); n++ {
		next := f.cand[f.head]
		f.head++
		dst = append(dst, Neighbor{ID: kmer.ID(next.id), Dist: int(next.dist)})
		f.explore(next)
	}
	return dst
}

func (f *twinFinder) explore(p twinCandidate) {
	var fr [kmer.MaxK]twinFrontier
	n := 0
	for pos := int(p.from); pos < f.k; pos++ {
		if row := f.rows[pos]; len(row) > 0 {
			fr[n] = twinFrontier{cost: p.dist + int32(row[0].Expense), pos: uint8(pos)}
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
		if len(f.cand)-f.head >= f.m && next.cost > f.cand[len(f.cand)-1].dist {
			return
		}
		pos := int(next.pos)
		row := f.rows[pos]
		f.offer(twinCandidate{
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

func (f *twinFinder) offer(c twinCandidate) {
	if len(f.cand)-f.head >= f.m {
		if !twinCandLess(c, f.cand[len(f.cand)-1]) {
			return
		}
		f.cand = f.cand[:len(f.cand)-1]
	}
	f.cand = append(f.cand, c)
	i := len(f.cand) - 1
	for ; i > f.head && twinCandLess(c, f.cand[i-1]); i-- {
		f.cand[i] = f.cand[i-1]
	}
	f.cand[i] = c
}

// A warm Finder over varied roots — what core.expandAS pays per k-mer — at
// the m avsa_subs_ug searches with, the m of the pinned digests and
// BenchmarkFindM25K6, and mmseqs.maxNeighbors' cap.
func BenchmarkFinder(b *testing.B) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	rng := rand.New(rand.NewSource(5))
	roots := make([]kmer.ID, 1024)
	for i := range roots {
		roots[i] = randomRoot(rng, 6, allCodes[:scoring.StandardAACount])
	}
	for _, m := range []int{10, 25, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			f := mustFinder(b, 6, e, m)
			var buf []Neighbor
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = f.AppendFind(buf[:0], roots[i%len(roots)])
			}
		})
	}
}
