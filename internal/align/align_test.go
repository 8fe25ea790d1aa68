package align

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
)

func codes(t testing.TB, s string) []alphabet.Code {
	t.Helper()
	c, err := alphabet.EncodeSeq([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSWIdenticalSequences(t *testing.T) {
	sc := DefaultScoring()
	s := codes(t, "MKVLAWHPLC")
	r := new(swKernel).smithWaterman(s, s, Params{Scoring: sc})
	want := 0
	for _, c := range s {
		want += sc.Matrix.Score(c, c)
	}
	if r.Score != want {
		t.Errorf("self alignment score = %d, want %d", r.Score, want)
	}
	if r.Matches != len(s) || r.AlignLen != len(s) {
		t.Errorf("matches=%d alen=%d, want %d/%d", r.Matches, r.AlignLen, len(s), len(s))
	}
	if r.Identity() != 1.0 {
		t.Errorf("identity = %f", r.Identity())
	}
	if r.BeginA != 0 || r.EndA != len(s) || r.BeginB != 0 || r.EndB != len(s) {
		t.Errorf("span [%d,%d)x[%d,%d)", r.BeginA, r.EndA, r.BeginB, r.EndB)
	}
}

func TestSWSymmetric(t *testing.T) {
	sc := DefaultScoring()
	a := codes(t, "MKVLAWHPLCQERNDYFI")
	b := codes(t, "MKVANWHPLCQRNDYF")
	r1 := new(swKernel).smithWaterman(a, b, Params{Scoring: sc})
	r2 := new(swKernel).smithWaterman(b, a, Params{Scoring: sc})
	if r1.Score != r2.Score {
		t.Errorf("SW not symmetric: %d vs %d", r1.Score, r2.Score)
	}
	if r1.Matches != r2.Matches || r1.AlignLen != r2.AlignLen {
		t.Errorf("stats not symmetric: %+v vs %+v", r1, r2)
	}
}

func TestSWLocality(t *testing.T) {
	sc := DefaultScoring()
	// A strong common core with unrelated flanks: local alignment should
	// recover (roughly) the core, not the flanks.
	core := "WWHHCCWWHHCC"
	a := codes(t, "GGGGGG"+core+"IIIIII")
	b := codes(t, "PPPP"+core+"LLLL")
	r := new(swKernel).smithWaterman(a, b, Params{Scoring: sc})
	coreScore := 0
	for _, c := range codes(t, core) {
		coreScore += sc.Matrix.Score(c, c)
	}
	if r.Score < coreScore {
		t.Errorf("score %d < core score %d", r.Score, coreScore)
	}
	if r.BeginA < 4 || r.BeginB < 2 {
		t.Errorf("alignment should start near the core: %+v", r)
	}
}

func TestSWEmptyAndNoPositive(t *testing.T) {
	sc := DefaultScoring()
	if r := new(swKernel).smithWaterman(nil, codes(t, "MKV"), Params{Scoring: sc}); r.Score != 0 {
		t.Errorf("empty input score %d", r.Score)
	}
	// W vs P scores -4: no positive local alignment exists.
	if r := new(swKernel).smithWaterman(codes(t, "W"), codes(t, "P"), Params{Scoring: sc}); r.Score != 0 {
		t.Errorf("all-negative alignment score %d", r.Score)
	}
}

func TestSWGapAlignment(t *testing.T) {
	sc := DefaultScoring()
	// b equals a with a 3-residue deletion: SW must bridge it with one gap.
	a := codes(t, "MKVLAWHPLCQERNDYFIWW")
	b := append(append([]alphabet.Code{}, a[:8]...), a[11:]...)
	r := new(swKernel).smithWaterman(a, b, Params{Scoring: sc})
	selfScore := 0
	for _, c := range a {
		selfScore += sc.Matrix.Score(c, c)
	}
	wantMin := selfScore - 3*sc.Matrix.MaxScore() - (sc.GapOpen + 3*sc.GapExtend)
	if r.Score < wantMin {
		t.Errorf("gapped score %d below plausible %d", r.Score, wantMin)
	}
	if r.AlignLen != len(a) {
		t.Errorf("alignment length %d, want %d (17 matches + 3-gap)", r.AlignLen, len(a))
	}
	if r.Matches != len(b) {
		t.Errorf("matches %d, want %d", r.Matches, len(b))
	}
}

// Brute-force SW on tiny sequences: enumerate all local alignments with at
// most one gap run to sanity-check scores from the DP.
func TestSWAgainstSimpleCases(t *testing.T) {
	sc := DefaultScoring()
	cases := []struct {
		a, b string
		want int
	}{
		{"AAA", "AAA", 12},
		{"W", "W", 11},
		{"WW", "WW", 22},
		{"AW", "WA", 11}, // best single letter W
		{"ACDEFG", "ACDEFG", 4 + 9 + 6 + 5 + 6 + 6},
	}
	for _, tc := range cases {
		r := new(swKernel).smithWaterman(codes(t, tc.a), codes(t, tc.b), Params{Scoring: sc})
		if r.Score != tc.want {
			t.Errorf("SW(%s,%s) = %d, want %d", tc.a, tc.b, r.Score, tc.want)
		}
	}
}

func TestXDropSeedOutOfRange(t *testing.T) {
	p := DefaultParams()
	a, b := codes(t, "MKVLAW"), codes(t, "MKVLAW")
	if _, err := new(xdKernel).xDrop(a, b, 5, 0, 6, p); err == nil {
		t.Error("seed past end should error")
	}
	if _, err := new(xdKernel).xDrop(a, b, -1, 0, 3, p); err == nil {
		t.Error("negative seed should error")
	}
}

func TestXDropIdentical(t *testing.T) {
	p := DefaultParams()
	s := codes(t, "MKVLAWHPLCQERNDYFI")
	r, err := new(xdKernel).xDrop(s, s, 6, 6, 6, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range s {
		want += p.Scoring.Matrix.Score(c, c)
	}
	if r.Score != want {
		t.Errorf("x-drop self score = %d, want %d", r.Score, want)
	}
	if r.BeginA != 0 || r.EndA != len(s) {
		t.Errorf("x-drop should extend to both ends: %+v", r)
	}
	if r.Identity() != 1.0 {
		t.Errorf("identity %f", r.Identity())
	}
}

// X-drop from any seed inside an exact repeat region can never exceed the
// SW optimum; with identical sequences it should match it.
func TestXDropNeverExceedsSW(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	letters := "ARNDCQEGHILKMFPSTWYV"
	p := DefaultParams()
	for trial := 0; trial < 30; trial++ {
		n := 30 + rng.Intn(60)
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = letters[rng.Intn(20)]
		}
		a := codes(t, string(raw))
		// b: mutated copy.
		rawB := append([]byte(nil), raw...)
		for m := 0; m < 6; m++ {
			rawB[rng.Intn(len(rawB))] = letters[rng.Intn(20)]
		}
		b := codes(t, string(rawB))
		sw := new(swKernel).smithWaterman(a, b, p)
		seed := rng.Intn(n - 6)
		xd, err := new(xdKernel).xDrop(a, b, seed, seed, 6, p)
		if err != nil {
			t.Fatal(err)
		}
		if xd.Score > sw.Score {
			t.Errorf("trial %d: x-drop %d exceeds SW %d", trial, xd.Score, sw.Score)
		}
	}
}

func TestXDropBridgesGap(t *testing.T) {
	p := DefaultParams()
	// a and b share a prefix and suffix with a 2-residue insertion in b.
	a := codes(t, "MKVLAWHPLCQERNDYFIWWHHCC")
	b := append(append([]alphabet.Code{}, a[:12]...), codes(t, "GG")...)
	b = append(b, a[12:]...)
	r, err := new(xdKernel).xDrop(a, b, 2, 2, 6, p)
	if err != nil {
		t.Fatal(err)
	}
	// All of a should align (24 matches), with a 2-column gap.
	if r.Matches != len(a) {
		t.Errorf("matches = %d, want %d", r.Matches, len(a))
	}
	if r.AlignLen != len(a)+2 {
		t.Errorf("alignment length = %d, want %d", r.AlignLen, len(a)+2)
	}
}

func TestXDropStopsAtJunk(t *testing.T) {
	p := DefaultParams()
	// Identical 12-residue block, then completely hostile tails; the
	// extension must terminate without dragging the score down more than X.
	blockA := "WWHHCCWWHHCC"
	a := codes(t, blockA+"PPPPPPPPPPPPPPPPPPPPPPPP")
	b := codes(t, blockA+"WWWWWWWWWWWWWWWWWWWWWWWW")
	r, err := new(xdKernel).xDrop(a, b, 0, 0, 6, p)
	if err != nil {
		t.Fatal(err)
	}
	blockScore := 0
	for _, c := range codes(t, blockA) {
		blockScore += p.Scoring.Matrix.Score(c, c)
	}
	if r.Score != blockScore {
		t.Errorf("score = %d, want %d (block only)", r.Score, blockScore)
	}
	if r.EndA != len(blockA) {
		t.Errorf("extension ran into junk: EndA = %d", r.EndA)
	}
}

func TestUngappedExtend(t *testing.T) {
	sc := DefaultScoring()
	a := codes(t, "MKVLAWHPLC")
	r := ungappedExtend(a, a, 3, 3, 3, Params{Scoring: sc, XDrop: 10})
	want := 0
	for _, c := range a {
		want += sc.Matrix.Score(c, c)
	}
	if r.Score != want {
		t.Errorf("ungapped self extension = %d, want %d", r.Score, want)
	}
	if r.BeginA != 0 || r.EndA != len(a) {
		t.Errorf("span [%d,%d)", r.BeginA, r.EndA)
	}
	if r.Matches != len(a) {
		t.Errorf("matches = %d", r.Matches)
	}
}

func TestUngappedExtendStops(t *testing.T) {
	sc := DefaultScoring()
	a := codes(t, "WWWW"+"PPPPPPPP")
	b := codes(t, "WWWW"+"GGGGGGGG")
	r := ungappedExtend(a, b, 0, 0, 4, Params{Scoring: sc, XDrop: 8})
	if r.Score != 44 {
		t.Errorf("score = %d, want 44 (4xW)", r.Score)
	}
	if r.EndA != 4 {
		t.Errorf("EndA = %d, want 4", r.EndA)
	}
}

func TestStatsHelpers(t *testing.T) {
	r := Result{Score: 50, Matches: 8, AlignLen: 10, BeginA: 0, EndA: 10, BeginB: 5, EndB: 15}
	if r.Identity() != 0.8 {
		t.Errorf("identity = %f", r.Identity())
	}
	if got := r.CoverageShorter(20, 15); got != 10.0/15.0 {
		t.Errorf("coverage = %f", got)
	}
	if got := r.NormalizedScore(20, 15); got != 50.0/15.0 {
		t.Errorf("NS = %f", got)
	}
	var zero Result
	if zero.Identity() != 0 || zero.CoverageShorter(0, 0) != 0 || zero.NormalizedScore(0, 0) != 0 {
		t.Error("zero-value result should produce zero stats")
	}
}

func randomSeq(rng *rand.Rand, n int) []alphabet.Code {
	s := make([]alphabet.Code, n)
	for i := range s {
		s[i] = alphabet.Code(rng.Intn(20))
	}
	return s
}

// The x-drop rows are never cleared, within a call or between calls: every
// read must land on a cell the current extension stored. One reused xdKernel
// runs a stream ordered to leave the most misleading leftovers behind — a
// long pair before a short one, a wide band (poly-A, large x-drop) before a
// narrow one, an extension abandoned by an early break (unrelated tails)
// before one that runs to the end — and must match a fresh kernel on every
// step.
func TestXDropReuseLeftovers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xd := new(xdKernel)
	long := randomSeq(rng, 650)
	polyA := polyASeq(rng, 500)
	wide, narrow := DefaultParams(), DefaultParams()
	wide.XDrop, narrow.XDrop = 200, 10
	steps := []struct {
		name  string
		x, y  []alphabet.Code
		seedA int // seedB = seedA: every y keeps x's coordinates at the seed
		p     Params
	}{
		{"long homolog, wide", long, mutateSeq(rng, long, 0.2, 0), 300, wide},
		{"short homolog, narrow", long[:40], mutateSeq(rng, long[:40], 0.1, 0), 10, narrow},
		{"poly-A, wide", polyA, mutateSeq(rng, polyA, 0.05, 0), 200, wide},
		{"unrelated tails: early break", long, append(append([]alphabet.Code(nil), long[:30]...), randomSeq(rng, 600)...), 5, DefaultParams()},
		{"long homolog, narrow", long, mutateSeq(rng, long, 0.1, 0), 600, narrow},
		{"unrelated heads: early break on the left", long, append(randomSeq(rng, 600), long[600:]...), 610, DefaultParams()},
		{"short identical", long[100:160], long[100:160], 20, DefaultParams()},
		{"long identical, wide", long, long, 0, wide},
		{"one residue each side of the seed", long[:8], long[:8], 1, narrow},
	}
	for round := 0; round < 2; round++ { // the second round starts from the first's leftovers
		for _, st := range steps {
			got, err1 := xd.xDrop(st.x, st.y, st.seedA, st.seedA, 6, st.p)
			want, err2 := new(xdKernel).xDrop(st.x, st.y, st.seedA, st.seedA, 6, st.p)
			if err1 != nil || err2 != nil || got != want {
				t.Fatalf("round %d, %s: reused %+v (%v) != fresh %+v (%v)", round, st.name, got, err1, want, err2)
			}
		}
	}
}

// A warm xdKernel extends without allocating: rows, reversal scratch and the
// diagonal-step table are all in place after the first call.
func TestXDropAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomSeq(rng, 400)
	y := mutateSeq(rng, x, 0.2, 3)
	xd, p := new(xdKernel), DefaultParams()
	align := func() {
		if _, err := xd.xDrop(x, y, 100, 100, 6, p); err != nil {
			t.Fatal(err)
		}
	}
	align()
	if allocs := testing.AllocsPerRun(20, align); allocs != 0 {
		t.Errorf("warm XDrop allocates %.0f times per call", allocs)
	}
}

// The packed lanes bound the pair: len(a)+len(b) < 2^19. At the bound the
// statistics are still exact (the two 19-bit fields hold them; the band on
// an identical pair stays narrow, so this is cheap); past it the kernel
// refuses by name rather than wrap.
func TestXDropPackedLimits(t *testing.T) {
	const n = 1<<18 - 1
	rng := rand.New(rand.NewSource(11))
	s := randomSeq(rng, n+1)
	p := DefaultParams()
	xd := new(xdKernel)

	r, err := xd.xDrop(s[:n], s[:n], n/3, n/3, 6, p)
	if err != nil {
		t.Fatal(err)
	}
	score := 0
	for _, c := range s[:n] {
		score += p.Scoring.Matrix.Score(c, c)
	}
	want := Result{Score: score, Matches: n, AlignLen: n, EndA: n, EndB: n, Cells: r.Cells}
	if r != want {
		t.Errorf("2x%d identical residues: %+v, want %+v", n, r, want)
	}
	if r.Cells > 200*n {
		t.Errorf("band did not stay narrow: %d cells over %d rows", r.Cells, n)
	}

	// 2^19 - 1 combined is still inside; 2^19 is not, whatever the seed.
	if _, err := xd.xDrop(s, s[:n], 0, 0, 6, p); err != nil {
		t.Errorf("lengths %d+%d: %v", n+1, n, err)
	}
	for _, seed := range []int{0, n / 2, n + 1 - 6} {
		if _, err := xd.xDrop(s, s, seed, seed, 6, p); !errors.Is(err, ErrSequenceTooLong) {
			t.Errorf("lengths %d+%d, seed %d: error %v, want ErrSequenceTooLong", n+1, n+1, seed, err)
		}
	}
	// The kernel is still good after a refusal.
	if r, err := xd.xDrop(s[:50], s[:50], 10, 10, 6, p); err != nil || r.Matches != 50 {
		t.Errorf("after a refusal: %+v, %v", r, err)
	}
}

// Parameters the lanes cannot score are refused, not wrapped.
func TestXDropRejectsParamsOutOfRange(t *testing.T) {
	s := codes(t, "MKVLAWHPLCQERNDYFI")
	for _, bad := range []func(*Params){
		func(p *Params) { p.XDrop = -1 },
		func(p *Params) { p.XDrop = 1 << 28 },
		func(p *Params) { p.Scoring.GapOpen = -1 },
		func(p *Params) { p.Scoring.GapOpen = 1<<20 + 1 },
		func(p *Params) { p.Scoring.GapExtend = -3 },
		func(p *Params) { p.Scoring.GapExtend = 1 << 30 },
	} {
		p := DefaultParams()
		bad(&p)
		if r, err := new(xdKernel).xDrop(s, s, 6, 6, 6, p); err == nil {
			t.Errorf("x-drop %d gaps (%d,%d) accepted: %+v", p.XDrop, p.Scoring.GapOpen, p.Scoring.GapExtend, r)
		}
	}
}

// benchPairs are the warm-kernel benchmarks' inputs: the lengths the
// repository benchmark's generator spans, a near-identical pair (narrow
// x-drop band) and a diverged one with indels (wide band, many ties).
var benchPairs = []struct {
	name    string
	n       int
	subRate float64
	indels  int
}{
	{"len300/id90", 300, 0.10, 0},
	{"len300/id70indel", 300, 0.30, 4},
	{"len600/id90", 600, 0.10, 0},
	{"len600/id70indel", 600, 0.30, 8},
}

// BenchmarkSmithWaterman and BenchmarkXDrop time the kernels alone: one
// kernel instance, warmed before the clock starts, so an iteration allocates
// nothing and Mcells/s is the DP loop's own rate.
func BenchmarkSmithWaterman(b *testing.B) {
	for _, bp := range benchPairs {
		b.Run(bp.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := randomSeq(rng, bp.n)
			y := mutateSeq(rng, x, bp.subRate, bp.indels)
			sw, p := new(swKernel), DefaultParams()
			sw.smithWaterman(x, y, p)
			var cells int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cells += sw.smithWaterman(x, y, p).Cells
			}
			b.ReportMetric(float64(cells)/1e6/b.Elapsed().Seconds(), "Mcells/s")
		})
	}
}

func BenchmarkXDrop(b *testing.B) {
	for _, bp := range benchPairs {
		b.Run(bp.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			x := randomSeq(rng, bp.n)
			y := mutateSeq(rng, x, bp.subRate, bp.indels)
			const k = 6
			copy(y[:k], x[:k]) // the seed: extension runs the length of the pair
			xd, p := new(xdKernel), DefaultParams()
			if _, err := xd.xDrop(x, y, 0, 0, k, p); err != nil {
				b.Fatal(err)
			}
			var cells int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := xd.xDrop(x, y, 0, 0, k, p)
				if err != nil {
					b.Fatal(err)
				}
				cells += r.Cells
			}
			b.ReportMetric(float64(cells)/1e6/b.Elapsed().Seconds(), "Mcells/s")
		})
	}
}
