package spmat

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The reference the radix/merge assembly is held to: the stable comparison
// sort FromTriples used to run, kept here only. Values are operand lists and
// the add appends, so any deviation in fold order — not just in the folded
// set — shows up in the comparison.
type opList []int32

func appendOps(x, y opList) opList { return append(append(opList(nil), x...), y...) }
func firstWins(x, _ opList) opList { return x }

func referenceAssembly(rows, cols Index, ts []Triple[opList], add func(x, y opList) opList) *DCSC[opList] {
	sorted := append([]Triple[opList](nil), ts...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Col != sorted[j].Col {
			return sorted[i].Col < sorted[j].Col
		}
		return sorted[i].Row < sorted[j].Row
	})
	m := &DCSC[opList]{NumRows: rows, NumCols: cols}
	for _, t := range sorted {
		n := len(m.IR)
		if n > 0 && m.JC[len(m.JC)-1] == t.Col && m.IR[n-1] == t.Row {
			m.Vals[n-1] = add(m.Vals[n-1], t.Val)
			continue
		}
		if len(m.JC) == 0 || m.JC[len(m.JC)-1] != t.Col {
			m.JC = append(m.JC, t.Col)
			m.CP = append(m.CP, n)
		}
		m.IR = append(m.IR, t.Row)
		m.Vals = append(m.Vals, t.Val)
	}
	m.CP = append(m.CP, len(m.IR))
	return m
}

func sameOps(x, y opList) bool { return reflect.DeepEqual(x, y) }

// opTriples draws n triples whose positions repeat (distinct positions are
// drawn from a pool of about n/2) and whose values name their input index.
func opTriples(rng *rand.Rand, rows, cols Index, n int) []Triple[opList] {
	pool := make([][2]Index, n/2+1)
	for i := range pool {
		pool[i] = [2]Index{rng.Int63n(rows), rng.Int63n(cols)}
	}
	ts := make([]Triple[opList], n)
	for i := range ts {
		p := pool[rng.Intn(len(pool))]
		ts[i] = Triple[opList]{Row: p[0], Col: p[1], Val: opList{int32(i)}}
	}
	return ts
}

func pow24(k int) Index {
	x := Index(1)
	for ; k > 0; k-- {
		x *= 24
	}
	return x
}

func checkAgainstReference(t *testing.T, name string, rows, cols Index, ts []Triple[opList]) {
	t.Helper()
	for addName, add := range map[string]func(x, y opList) opList{"append": appendOps, "first-wins": firstWins} {
		want := referenceAssembly(rows, cols, ts, add)
		got, err := FromTriples(rows, cols, append([]Triple[opList](nil), ts...), add)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, addName, err)
		}
		if !Equal(want, got, sameOps) {
			t.Fatalf("%s/%s: assembly of %d triples differs from the stable-sort reference", name, addName, len(ts))
		}
		if cap(got.IR) != len(got.IR) || cap(got.Vals) != len(got.Vals) {
			t.Errorf("%s/%s: IR/Vals not sized once: len %d cap %d/%d", name, addName, len(got.IR), cap(got.IR), cap(got.Vals))
		}
	}
}

func TestAssemblyMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	colMajor := func(ts []Triple[opList]) {
		sort.SliceStable(ts, func(i, j int) bool {
			return ts[i].Col < ts[j].Col || ts[i].Col == ts[j].Col && ts[i].Row < ts[j].Row
		})
	}
	checkAgainstReference(t, "empty", 5, 5, nil)
	checkAgainstReference(t, "one entry", 5, 5, opTriples(rng, 5, 5, 1))
	for _, n := range []int{2, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 3 * insertionCutoff} {
		checkAgainstReference(t, "around the cut-off", 40, 1<<20, opTriples(rng, 40, 1<<20, n))
	}
	sorted := opTriples(rng, 300, 5000, 4000)
	colMajor(sorted)
	checkAgainstReference(t, "already sorted", 300, 5000, sorted)
	reversed := append([]Triple[opList](nil), sorted...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	checkAgainstReference(t, "reverse sorted", 300, 5000, reversed)
	checkAgainstReference(t, "one column", 5000, 7, func() []Triple[opList] {
		ts := opTriples(rng, 5000, 1, 3000)
		for i := range ts {
			ts[i].Col = 6
		}
		return ts
	}())
	checkAgainstReference(t, "hypersparse 1000 x 24^6", 1000, pow24(6), opTriples(rng, 1000, pow24(6), 20000))
	// rows*cols overflows 64 bits: no packed (col,row) key can exist.
	checkAgainstReference(t, "24^7 x 24^7", pow24(7), pow24(7), opTriples(rng, pow24(7), pow24(7), 20000))
	// A column panel: every index shares its high bits.
	panel := opTriples(rng, 1<<9, 1<<9, 5000)
	for i := range panel {
		panel[i].Row += 3 << 40
		panel[i].Col += 5 << 33
	}
	checkAgainstReference(t, "shared high bits", 1<<42, 1<<36, panel)
}

// dealParts deals ts into n duplicate-free matrices (a DCSC holds a position
// once): a triple goes to the first part outside empty that does not hold
// its position yet, and is dropped when every such part does.
func dealParts(t *testing.T, rows, cols Index, ts []Triple[opList], n int, empty []int) []*DCSC[opList] {
	t.Helper()
	held := make([]map[[2]Index]bool, n)
	for i := range held {
		held[i] = map[[2]Index]bool{}
	}
	for _, i := range empty {
		held[i] = nil
	}
	lists := make([][]Triple[opList], n)
	for _, tr := range ts {
		for i, h := range held {
			if h != nil && !h[[2]Index{tr.Row, tr.Col}] {
				h[[2]Index{tr.Row, tr.Col}] = true
				lists[i] = append(lists[i], tr)
				break
			}
		}
	}
	parts := make([]*DCSC[opList], n)
	for i := range parts {
		parts[i] = mustFromTriples(t, rows, cols, lists[i], nil)
	}
	return parts
}

func TestMergeAddMatchesFromTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const rows, cols = 60, 1 << 30
	for _, tc := range []struct {
		n     int
		empty []int
	}{
		{1, nil}, {1, []int{0}}, {2, nil}, {2, []int{0}}, {2, []int{1}},
		{3, nil}, {3, []int{1}}, {4, nil}, {4, []int{0, 3}}, {4, []int{0, 1, 2, 3}},
	} {
		parts := dealParts(t, rows, cols, opTriples(rng, rows, cols, 3000), tc.n, tc.empty)
		var concat []Triple[opList]
		for _, p := range parts {
			concat = append(concat, p.ToTriples()...)
		}
		for _, add := range []func(x, y opList) opList{appendOps, firstWins} {
			want := referenceAssembly(rows, cols, concat, add)
			got, err := MergeAdd(parts, add)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(want, got, sameOps) {
				t.Fatalf("%d parts (empty %v): merge differs from assembling the concatenated triples", tc.n, tc.empty)
			}
		}
	}

	a := mustFromTriples(t, 3, 3, []Triple[opList]{{0, 1, nil}}, nil)
	if _, err := MergeAdd([]*DCSC[opList]{a, a}, nil); err == nil {
		t.Error("coincident nonzeros with nil add should error")
	}
	if _, err := MergeAdd([]*DCSC[opList]{a, Empty[opList](3, 4)}, appendOps); err == nil {
		t.Error("shape mismatch should error")
	}
	if _, err := MergeAdd[opList](nil, appendOps); err == nil {
		t.Error("no parts should error")
	}
}

// FuzzAssemblyMatchesReference decodes the input as (row, col) byte pairs
// under a fuzzed shape and holds FromTriples, and MergeAdd over a two-way
// split, to the stable-sort reference.
func FuzzAssemblyMatchesReference(f *testing.F) {
	f.Add(uint8(8), uint8(8), []byte{})
	f.Add(uint8(3), uint8(40), []byte{1, 2, 1, 2, 0, 0, 2, 1, 1, 2})
	f.Add(uint8(63), uint8(63), []byte("the quick brown fox jumps over the lazy dog, twice over; the quick brown fox jumps over the lazy dog"))
	rng := rand.New(rand.NewSource(47))
	long := make([]byte, 4*insertionCutoff)
	rng.Read(long)
	f.Add(uint8(20), uint8(50), long)
	f.Fuzz(func(t *testing.T, rowBits, colBits uint8, data []byte) {
		rows, cols := Index(1)<<(rowBits%63), Index(1)<<(colBits%63)
		var ts []Triple[opList]
		for i := 0; i+1 < len(data); i += 2 {
			// Equal bytes give equal indices (duplicates); the multiply
			// spreads them over the whole index width so high digits vary.
			r := Index(uint64(data[i])*fibMul>>1) % rows
			c := Index(uint64(data[i+1])*fibMul>>1) % cols
			ts = append(ts, Triple[opList]{Row: r, Col: c, Val: opList{int32(i)}})
		}
		want := referenceAssembly(rows, cols, ts, appendOps)
		got, err := FromTriples(rows, cols, append([]Triple[opList](nil), ts...), appendOps)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(want, got, sameOps) {
			t.Fatalf("FromTriples differs from reference on %d triples in %dx%d", len(ts), rows, cols)
		}
		if tt := got.Transpose().Transpose(); !Equal(got, tt, sameOps) {
			t.Fatal("transpose is not an involution")
		}
		half := len(ts) / 2
		a := referenceAssembly(rows, cols, ts[:half], appendOps)
		b := referenceAssembly(rows, cols, ts[half:], appendOps)
		merged, err := MergeAdd([]*DCSC[opList]{a, b}, appendOps)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(want, merged, sameOps) {
			t.Fatalf("MergeAdd of a two-way split differs from reference on %d triples", len(ts))
		}
	})
}
