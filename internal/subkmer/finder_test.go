package subkmer

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
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

// positiveCodes are the codes whose every substitution costs something under
// e: the 20 standard residues and '*' under BLOSUM62, every code under
// scoring.Identity.
func positiveCodes(e *scoring.Expense) []alphabet.Code {
	var codes []alphabet.Code
	for _, c := range allCodes {
		if e.Cheapest(c).Expense > 0 {
			codes = append(codes, c)
		}
	}
	return codes
}

// The search must agree exactly with brute-force enumeration, tie order
// included, for m from 1 to more than the candidate space holds, on roots
// over all 24 codes: the B, Z and X rows' zero and negative expenses too.
func TestFinderMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mtx := range []*scoring.Matrix{scoring.BLOSUM62, scoring.Identity} {
		e := scoring.NewExpense(mtx)
		for k := 1; k <= 4; k++ {
			ms := []int{1, 10, 25}
			trials := 12
			if k < 4 {
				ms = append(ms, 10000) // more than the 21^3-1 candidates there are
			} else {
				trials = 2 // the naive side sorts some 21^4 candidates per root
			}
			for _, m := range ms {
				f := mustFinder(t, k, e, m)
				var got []Neighbor
				for trial := 0; trial < trials; trial++ {
					root := randomRoot(rng, k, allCodes)
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

// Any root of up to 3 positions, any m (beyond the 21^3-1 candidates there
// are too) and both matrices: the search is the brute-force enumeration.
func FuzzFinderMatchesNaive(f *testing.F) {
	f.Add(uint8(3), uint16(60), uint64(0), false)
	f.Add(uint8(2), uint16(10), uint64(22*24+22), false) // XX: negative expenses
	f.Add(uint8(3), uint16(9999), uint64(13823), true)
	f.Fuzz(func(t *testing.T, k uint8, m uint16, root uint64, identity bool) {
		n := 1 + int(k)%3
		id := kmer.ID(root % kmer.SpaceSize(n))
		mtx := scoring.BLOSUM62
		if identity {
			mtx = scoring.Identity
		}
		e := scoring.NewExpense(mtx)
		got, err := Find(id, n, e, int(m))
		if err != nil {
			t.Fatal(err)
		}
		want, err := FindNaive(id, n, e, int(m))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s root %s m=%d: %d neighbors, naive has %d; first difference at %d",
				mtx.Name, kmer.String(id, n), m, len(got), len(want), firstDiff(got, want))
		}
	})
}

// boundedNearest is the m nearest substitutes of root by enumeration: every
// k-mer within distance d, for the least d that has m of them. Its walk
// prunes a prefix by the least the positions after it can add — negative on
// the X row — so it is exact whatever the signs of the expenses, and it
// visits only prefixes of k-mers within d, which keeps k up to 8 cheap.
func boundedNearest(root kmer.ID, k int, e *scoring.Expense, m int) []Neighbor {
	bases := kmer.Decode(root, k)
	floor := make([]int, k+1) // floor[p]: the least positions p.. can add
	for p := k - 1; p >= 0; p-- {
		floor[p] = floor[p+1] + min(0, e.Cheapest(bases[p]).Expense)
	}
	var out []Neighbor
	var walk func(pos int, id kmer.ID, dist, d, limit int, changed bool) bool
	walk = func(pos int, id kmer.ID, dist, d, limit int, changed bool) bool {
		if dist+floor[pos] > d {
			return true
		}
		if pos == k {
			if changed {
				out = append(out, Neighbor{ID: id, Dist: dist})
			}
			return len(out) < limit
		}
		if !walk(pos+1, id, dist, d, limit, changed) {
			return false
		}
		for _, s := range e.Rows[bases[pos]] {
			if !walk(pos+1, kmer.SetBase(id, k, pos, s.Base), dist+s.Expense, d, limit, true) {
				return false
			}
		}
		return true
	}
	d := floor[0]
	for ; ; d++ {
		out = out[:0]
		walk(0, root, 0, d, m, false)
		if len(out) >= m {
			break
		}
	}
	out = out[:0]
	walk(0, root, 0, d, math.MaxInt, false)
	slices.SortFunc(out, func(a, b Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	return out[:m]
}

// On roots that hold a B, Z or X at k 5 to 8, where the enumeration of
// FindNaive is out of reach, the search is the bounded enumeration.
func TestFinderMatchesBoundedEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	e := scoring.NewExpense(scoring.BLOSUM62)
	ambiguous := []alphabet.Code{alphabet.Encode('B'), alphabet.Encode('Z'), alphabet.Encode('X')}
	for k := 5; k <= 8; k++ {
		for _, m := range []int{1, 10, 25, 100} {
			f := mustFinder(t, k, e, m)
			var got []Neighbor
			for trial := 0; trial < 8; trial++ {
				codes := kmer.Decode(randomRoot(rng, k, allCodes), k)
				codes[rng.Intn(k)] = ambiguous[rng.Intn(len(ambiguous))]
				root := kmer.Encode(codes)
				got = f.AppendFind(got[:0], root)
				if want := boundedNearest(root, k, e, m); !slices.Equal(got, want) {
					t.Fatalf("root %s m=%d: %d neighbors, the enumeration has %d; first difference at %d",
						kmer.String(root, k), m, len(got), len(want), firstDiff(got, want))
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
// roots of length k drawn over the codes whose substitutions all cost
// something under BLOSUM62.
func findDigest(t *testing.T, k, m, n int) uint64 {
	t.Helper()
	e := scoring.NewExpense(scoring.BLOSUM62)
	codes := positiveCodes(e)
	rng := rand.New(rand.NewSource(2020))
	h := fnv.New64a()
	var word [8]byte
	for i := 0; i < n; i++ {
		nbrs, err := Find(randomRoot(rng, k, codes), k, e, m)
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

// The digests were recorded at commit 671463f, from the substitution-tree
// search this package had before it split k-mers into halves: every list, tie
// order included, is what that search returned. The roots hold no B, Z or X,
// on which the tree's lists were not the m nearest.
func TestFindDigestPinned(t *testing.T) {
	for _, tc := range []struct {
		m    int
		want uint64
	}{
		{10, 0xe9b59df5525ae07b},
		{25, 0xab86cffd3217a23c},
	} {
		if got := findDigest(t, 6, tc.m, 20000); got != tc.want {
			t.Errorf("k=6 m=%d: digest %#x, pinned %#x", tc.m, got, tc.want)
		}
	}
}

// Once the Finder has met a root's halves and dst has room, a search
// allocates nothing: a warm memo only reads.
func TestFinderAllocationFree(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	f := mustFinder(t, 6, e, 25)
	rng := rand.New(rand.NewSource(3))
	roots := make([]kmer.ID, 64)
	var buf []Neighbor
	for i := range roots {
		roots[i] = randomRoot(rng, 6, allCodes)
		buf = f.AppendFind(buf[:0], roots[i]) // warm: the memo meets every half here
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf = f.AppendFind(buf[:0], roots[i%len(roots)])
		i++
	})
	if allocs != 0 {
		t.Errorf("AppendFind with a warm memo allocates %v times per call, want 0", allocs)
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

// The memo holds at most m+1 entries per half it was asked for: the halves of
// 2 and 3 positions of the roots searched, and nothing else. The span table
// is one slot per 2- and 3-mer whatever was searched, so its met slots are
// counted.
func TestFinderMemoBounded(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	rng := rand.New(rand.NewSource(13))
	// halves adds the remembered halves of the n-mer x: those a search of x
	// can reach.
	var halves func(seen map[[2]uint64]bool, n int, x uint64)
	halves = func(seen map[[2]uint64]bool, n int, x uint64) {
		if n == 1 {
			return
		}
		if n <= memoLen {
			seen[[2]uint64{uint64(n), x}] = true
		}
		w := kmer.SpaceSize(n / 2)
		halves(seen, n-n/2, x/w)
		halves(seen, n/2, x%w)
	}
	for _, k := range []int{3, 6, 8} {
		for _, m := range []int{1, 10, 100} {
			f := mustFinder(t, k, e, m)
			seen := map[[2]uint64]bool{}
			var buf []Neighbor
			for trial := 0; trial < 300; trial++ {
				root := randomRoot(rng, k, allCodes)
				buf = f.AppendFind(buf[:0], root)
				halves(seen, k, uint64(root))
				if met(f) > len(seen) || len(f.memo) > len(seen)*(m+1) {
					t.Fatalf("k=%d m=%d after %d roots: %d lists of %d entries in the memo, %d halves searched",
						k, m, trial+1, met(f), len(f.memo), len(seen))
				}
			}
		}
	}
}

// met is the number of halves whose list f's memo holds.
func met(f *Finder) int {
	n := 0
	for _, s := range f.spans {
		if s.n > 0 {
			n++
		}
	}
	return n
}

// A Finder remembers from its second root on: one that searches once builds
// no memo, so a one-shot Find allocates only its list buffers, its heap and
// the list it returns, its Finder staying on the stack.
func TestFinderRemembersFromSecondRoot(t *testing.T) {
	e := scoring.NewExpense(scoring.BLOSUM62)
	f := mustFinder(t, 6, e, 25)
	f.AppendFind(nil, mustID(t, "MKVLAW"))
	if f.spans != nil || len(f.memo) != 0 {
		t.Fatalf("after one root: %d lists, %d entries in the memo, want none", met(f), len(f.memo))
	}
	f.AppendFind(nil, mustID(t, "HLGFNM"))
	if met(f) == 0 {
		t.Fatal("after two roots: the memo is empty")
	}
	root := mustID(t, "MKVLAW")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Find(root, 6, e, 25); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("a one-shot Find allocates %v times, want at most 3", allocs)
	}
}

// Finder must return, list for list, what twinFinder returns: every k from 1
// to 8, m from 1 to more than a short root's space holds, and
// scoring.Identity, whose equal expenses make nearly every distance a tie.
// The roots hold only codes whose every substitution costs something, where
// the twin's tree search is exact (TestFinderMatchesBoundedEnumeration covers
// the others).
func TestFinderMatchesFrozenTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, mtx := range []*scoring.Matrix{scoring.BLOSUM62, scoring.Identity} {
		e := scoring.NewExpense(mtx)
		codes := positiveCodes(e)
		for k := 1; k <= 8; k++ {
			for _, m := range []int{1, 2, 3, 10, 25, 100, 500} {
				f, twin := mustFinder(t, k, e, m), newTwinFinder(k, e, m)
				var got, want []Neighbor
				for trial := 0; trial < 300; trial++ {
					root := randomRoot(rng, k, codes)
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
