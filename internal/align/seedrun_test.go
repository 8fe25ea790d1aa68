package align

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/scoring"
)

// The seeded kernels' Align loop as it was before seedRuns: every in-bounds
// seed is extended, the strictly better score wins and the first seed wins
// ties. TestSameRunSeedsTie and FuzzSameRunSeedsTie hold the shipped kernels
// to these twins: the same Result always, and exactly the cells of the
// seeds that share an earlier seed's run fewer. Do not optimize this copy.

type xdEverySeed struct{ xdKernel }

func (xd *xdEverySeed) Align(a, b []alphabet.Code, seeds []Seed, p Params) (Result, error) {
	var best Result
	for _, s := range seeds {
		if !seedWithin(s.PosA, s.PosB, s.K, len(a), len(b)) {
			continue
		}
		res, err := xd.xDrop(a, b, s.PosA, s.PosB, s.K, p)
		if err != nil {
			return Result{}, err
		}
		xd.cells += res.Cells
		if res.Score > best.Score {
			best = res
		}
	}
	return best, nil
}

type ugEverySeed struct{ ugKernel }

func (k *ugEverySeed) Align(a, b []alphabet.Code, seeds []Seed, p Params) (Result, error) {
	var best Result
	for _, s := range seeds {
		if !seedWithin(s.PosA, s.PosB, s.K, len(a), len(b)) {
			continue
		}
		res := ungappedExtend(a, b, s.PosA, s.PosB, s.K, p)
		k.cells += res.Cells
		if res.Score > best.Score {
			best = res
		}
	}
	return best, nil
}

// seedRunCases pairs each kernel the rule reaches with its twin and with the
// twin of the seeded kernel whose cells a skipped seed saves.
var seedRunCases = []struct {
	name   string
	twin   func() Kernel
	seeded func() Kernel
}{
	{"xd", func() Kernel { return &xdEverySeed{} }, func() Kernel { return &xdEverySeed{} }},
	{"ug", func() Kernel { return &ugEverySeed{} }, func() Kernel { return &ugEverySeed{} }},
	{"ug+wfa", func() Kernel {
		return &Cascade{spec: "ug+wfa", stages: []cascadeStage{
			{kernel: &ugEverySeed{}, threshold: DefaultCascadeThreshold},
			{kernel: &wfaKernel{}},
		}}
	}, func() Kernel { return &ugEverySeed{} }},
}

// dominantOracle is the dominance condition written out: a positive match
// score that no pair holding the residue exceeds, in either position.
func dominantOracle(m *scoring.Matrix, y alphabet.Code) bool {
	self := m.Score(y, y)
	if self <= 0 {
		return false
	}
	for x := alphabet.Code(0); x < alphabet.Size; x++ {
		if m.Score(x, y) > self || m.Score(y, x) > self {
			return false
		}
	}
	return true
}

// skippedOracle reports which seeds the rule leaves unextended: a seed
// inside the sequences that shares a diagonal with an earlier seed inside
// them, their span from the first start to the last end an exact run of
// dominant residues.
func skippedOracle(a, b []alphabet.Code, seeds []Seed, p Params) []bool {
	within := func(s Seed) bool { return s.K >= 0 && seedWithin(s.PosA, s.PosB, s.K, len(a), len(b)) }
	skip := make([]bool, len(seeds))
	for i, s := range seeds {
		if !within(s) || p.XDrop < 0 {
			continue
		}
	earlier:
		for _, t := range seeds[:i] {
			if !within(t) || t.PosA-t.PosB != s.PosA-s.PosB {
				continue
			}
			from, to := min(s.PosA, t.PosA), max(s.PosA+s.K, t.PosA+t.K)
			for x := from; x < to; x++ {
				y := x - s.PosA + s.PosB
				if a[x] != b[y] || !dominantOracle(p.Scoring.Matrix, a[x]) {
					continue earlier
				}
			}
			skip[i] = true
			break
		}
	}
	return skip
}

// diffSameRun aligns one pair with the kernel of case c and its twin. The
// Results must be equal and the kernel's cells must be the twin's less the
// seeded kernel's cells for each seed the oracle skips. It returns how many
// seeds were skipped.
func diffSameRun(t testing.TB, name string, k, twin Kernel, seeded func() Kernel, a, b []alphabet.Code, seeds []Seed, p Params) int {
	t.Helper()
	k0, t0 := k.CellsComputed(), twin.CellsComputed()
	got, err1 := k.Align(a, b, seeds, p)
	want, err2 := twin.Align(a, b, seeds, p)
	if (err1 == nil) != (err2 == nil) || got != want {
		t.Fatalf("%s: lens %d/%d seeds %v xdrop %d gaps (%d,%d):\nkernel %+v (%v)\ntwin   %+v (%v)",
			name, len(a), len(b), seeds, p.XDrop, p.Scoring.GapOpen, p.Scoring.GapExtend, got, err1, want, err2)
	}
	if err1 != nil {
		return 0
	}
	saved, skipped := int64(0), 0
	for i, skip := range skippedOracle(a, b, seeds, p) {
		if skip {
			one := seeded()
			if _, err := one.Align(a, b, seeds[i:i+1], p); err != nil {
				t.Fatal(err)
			}
			saved += one.CellsComputed()
			skipped++
		}
	}
	if gotCells, wantCells := k.CellsComputed()-k0, twin.CellsComputed()-t0-saved; gotCells != wantCells {
		t.Fatalf("%s: lens %d/%d seeds %v: %d cells, want %d (twin %d less %d for %d skipped seeds)",
			name, len(a), len(b), seeds, gotCells, wantCells, wantCells+saved, saved, skipped)
	}
	return skipped
}

// seedRunPairKinds are the shapes of TestSameRunSeedsTie: homologs with
// indels, three-letter and tandem-repeat pairs (many exact runs off the
// planted one, ties on whole anti-diagonals), and homologs rich in the
// ambiguity codes B and Z, which are dominant under BLOSUM62 only with ties
// (S(D,B) = S(B,B), S(E,Z) = S(Z,Z)).
var seedRunPairKinds = []struct {
	name string
	make func(rng *rand.Rand, n int) (x, y []alphabet.Code)
}{
	{"homolog", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		x = randomSeq(rng, n)
		return x, mutateSeq(rng, x, 0.3*rng.Float64(), rng.Intn(6))
	}},
	{"three-letter", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		l := []alphabet.Code{alphabet.Code(rng.Intn(20)), alphabet.Code(rng.Intn(20)), alphabet.Code(rng.Intn(20))}
		return lettersSeq(rng, n, l...), lettersSeq(rng, 8+rng.Intn(n), l...)
	}},
	{"tandem-repeat", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		unit := randomSeq(rng, 1+rng.Intn(8))
		x = tandemSeq(unit, 0, n)
		return x, mutateSeq(rng, tandemSeq(unit, rng.Intn(len(unit)), 8+rng.Intn(n)), 0.05, rng.Intn(3))
	}},
	{"B-Z-rich", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		bz := []alphabet.Code{alphabet.Encode('B'), alphabet.Encode('Z'), alphabet.Encode('D'),
			alphabet.Encode('E'), alphabet.Encode('N'), alphabet.Encode('Q')}
		x = randomSeq(rng, n)
		for i := range x {
			if rng.Intn(2) == 0 {
				x[i] = bz[rng.Intn(len(bz))]
			}
		}
		y = mutateSeq(rng, x, 0.2, rng.Intn(4))
		for i := range y {
			if rng.Intn(5) == 0 {
				y[i] = bz[rng.Intn(len(bz))]
			}
		}
		return x, y
	}},
}

// plantRun copies the run x[pa:pa+n] into y at pb, so seeds on that
// diagonal inside it share one exact run, and then spoils it as asked: one
// residue set to X in both sequences (X is not dominant) or one mismatch.
func plantRun(rng *rand.Rand, x, y []alphabet.Code, pa, pb, n int, spoil string) {
	copy(y[pb:pb+n], x[pa:pa+n])
	at := rng.Intn(n)
	switch spoil {
	case "X":
		x[pa+at], y[pb+at] = alphabet.Encode('X'), alphabet.Encode('X')
	case "mismatch":
		y[pb+at] = (x[pa+at] + 1 + alphabet.Code(rng.Intn(19))) % 20
	}
}

// TestSameRunSeedsTie holds xd, ug and the ug+wfa cascade to their
// extend-every-seed twins under BLOSUM62 and Identity: on each pair a run is planted on one diagonal and
// two or three seeds placed in it — overlapping, abutting or apart, in
// either order, sometimes with a seed on the neighbouring diagonal or one
// outside the sequences — and the run is left exact, given an X, or given a
// mismatch. The Results must be equal and the cells must drop by exactly the
// skipped seeds' extensions; the X and mismatch runs are the controls whose
// seeds must all be extended.
func TestSameRunSeedsTie(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	spoils := []string{"", "X", "mismatch"}
	for _, c := range seedRunCases {
		skipped := 0
		k, err := NewKernel(c.name)
		if err != nil {
			t.Fatal(err)
		}
		twin := c.twin()
		for _, m := range []*scoring.Matrix{scoring.BLOSUM62, scoring.Identity} {
			for _, xdrop := range []int{0, 10, 49, 200} {
				for _, gap := range [][2]int{{11, 1}, {5, 2}, {0, 1}, {0, 0}} {
					p := Params{Scoring: Scoring{Matrix: m, GapOpen: gap[0], GapExtend: gap[1]}, XDrop: xdrop}
					for _, kind := range seedRunPairKinds {
						for trial := 0; trial < trials; trial++ {
							kk := 1 + rng.Intn(8)
							delta := rng.Intn(2*kk + 2) // overlap, abut or leave a gap
							run := delta + kk
							x, y := kind.make(rng, run+rng.Intn(400))
							if len(y) < run {
								y = append(y, randomSeq(rng, run-len(y))...)
							}
							pa, pb := rng.Intn(len(x)-run+1), rng.Intn(len(y)-run+1)
							if trial%4 == 0 { // the run at an end of one sequence: an empty flank
								pa = (len(x) - run) * rng.Intn(2)
							}
							spoil := spoils[trial%len(spoils)]
							plantRun(rng, x, y, pa, pb, run, spoil)
							s1, s2 := Seed{PosA: pa, PosB: pb, K: kk}, Seed{PosA: pa + delta, PosB: pb + delta, K: kk}
							seeds := []Seed{s1, s2}
							layout := rng.Intn(5)
							switch layout {
							case 1: // the later seed listed first
								seeds[0], seeds[1] = s2, s1
							case 2: // a third seed, on the neighbouring diagonal
								seeds = append(seeds, Seed{PosA: pa + delta/2, PosB: pb + delta/2 + 1 - 2*rng.Intn(2), K: kk})
							case 3: // an out-of-bounds seed first
								seeds = append([]Seed{{PosA: len(x), PosB: pb, K: kk}}, seeds...)
							case 4: // a duplicate seed
								seeds = append(seeds, s1)
							}
							n := diffSameRun(t, c.name, k, twin, c.seeded, x, y, seeds, p)
							if layout > 1 {
								continue // the added seed may share a shorter, unspoiled run
							}
							if spoil == "X" && dominantOracle(m, alphabet.Encode('X')) {
								spoil = "" // X is dominant under Identity
							}
							if spoil != "" && n > 0 {
								t.Fatalf("%s: a seed in a run spoiled by %s was skipped", c.name, spoil)
							}
							skipped += n
						}
					}
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("%s: no seed in an exact run was skipped", c.name)
		}
	}
}

// TestSameRunDominance pins the dominance condition under the bundled
// matrices: every BLOSUM62 code but X, every Identity code.
func TestSameRunDominance(t *testing.T) {
	var r seedRuns
	seeds := []Seed{{K: 1}, {K: 1}}
	a := []alphabet.Code{0}
	for _, m := range []*scoring.Matrix{scoring.BLOSUM62, scoring.Identity} {
		r.repeats(a, a, seeds[:1], seeds[1], Params{Scoring: Scoring{Matrix: m}})
		for y := alphabet.Code(0); y < alphabet.Size; y++ {
			want := dominantOracle(m, y)
			if m == scoring.BLOSUM62 && want != (alphabet.Decode(y) != 'X') {
				t.Errorf("oracle: BLOSUM62 dominance of %c is %v", alphabet.Decode(y), want)
			}
			if r.dominant[y] != want {
				t.Errorf("%s: dominance of %c is %v, want %v", m.Name, alphabet.Decode(y), r.dominant[y], want)
			}
		}
	}
}

// FuzzSameRunSeedsTie is the same comparison on fuzzer-chosen input: any
// residues, a run planted or not, two seeds on one diagonal or on
// neighbouring ones, any x-drop and gap penalties in the kernels' range.
func FuzzSameRunSeedsTie(f *testing.F) {
	protein := []byte("MKVLAWHPLCQERNDYFIWWHHCCMKVLAWHPLCGGSTPAMKVLAWHPLC")
	f.Add(protein, protein, uint16(10), uint16(10), uint8(6), uint8(1), uint8(0), true, uint16(49), uint8(11), uint8(1))
	f.Add(protein, protein[3:], uint16(0), uint16(0), uint8(6), uint8(7), uint8(0), true, uint16(10), uint8(5), uint8(2))
	f.Add(protein, protein, uint16(20), uint16(4), uint8(3), uint8(2), uint8(1), true, uint16(0), uint8(0), uint8(1))
	bz := bytes.Repeat([]byte("BDZENQ"), 20)
	f.Add(bz, bz[1:], uint16(5), uint16(5), uint8(4), uint8(2), uint8(0), true, uint16(49), uint8(11), uint8(1))
	withX := []byte("MKVLAWHXLCQERNDYFI")
	f.Add(withX, withX, uint16(4), uint16(4), uint8(3), uint8(2), uint8(0), false, uint16(49), uint8(11), uint8(1))
	tandem := bytes.Repeat([]byte("MKVWG"), 40)
	f.Add(tandem, tandem[2:], uint16(30), uint16(30), uint8(6), uint8(5), uint8(2), true, uint16(200), uint8(0), uint8(0))
	kernels := make([]Kernel, len(seedRunCases))
	twins := make([]Kernel, len(seedRunCases))
	for i, c := range seedRunCases {
		var err error
		if kernels[i], err = NewKernel(c.name); err != nil {
			f.Fatal(err)
		}
		twins[i] = c.twin()
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, posA, posB uint16, k, delta, diagShift uint8, plant bool,
		xdrop uint16, gapOpen, gapExtend uint8) {
		const maxLen = 1 << 10
		toCodes := func(raw []byte) []alphabet.Code {
			raw = raw[:min(len(raw), maxLen)]
			codes := make([]alphabet.Code, len(raw))
			for i, c := range raw {
				codes[i] = alphabet.Code(c % alphabet.Size)
			}
			return codes
		}
		x, y := toCodes(rawA), toCodes(rawB)
		kk, d := int(k)%9, int(delta)%20
		run := d + kk
		if len(x) < run || len(y) < run {
			return
		}
		pa, pb := int(posA)%(len(x)-run+1), int(posB)%(len(y)-run+1)
		if plant {
			copy(y[pb:pb+run], x[pa:pa+run])
		}
		shift := int(diagShift)%3 - 1 // the second seed on this diagonal or a neighbour
		seeds := []Seed{{PosA: pa, PosB: pb, K: kk}, {PosA: pa + d, PosB: pb + d + shift, K: kk}}
		p := Params{
			Scoring: Scoring{Matrix: scoring.BLOSUM62, GapOpen: int(gapOpen), GapExtend: int(gapExtend)},
			XDrop:   int(xdrop),
		}
		for i, c := range seedRunCases {
			diffSameRun(t, c.name, kernels[i], twins[i], c.seeded, x, y, seeds, p)
		}
	})
}
