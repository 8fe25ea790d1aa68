package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
)

// The reference x-drop extension: the textbook Gotoh recurrence on a
// nine-field cell (score, matches and columns per layer, each its own
// int32), explicit liveness tests, strict-> tie rules written as
// conditional assignments, and a full row clear between DP rows, exactly as
// the kernel shipped before the banded-clear and packed-lane rewrites in
// align.go. TestXDropDenseMatchesBanded and FuzzXDropMatchesDense hold the
// two bit-identical. Do not optimize this copy.

// cell carries score plus best-path statistics for the three Gotoh layers.
type cell struct {
	h, e, f    int32
	mh, me, mf int32 // matches along the best path into each layer
	ah, ae, af int32 // alignment columns along the best path
}

var deadCell = cell{h: negInf, e: negInf, f: negInf}

// denseAligner owns the reference's row and seed-reversal buffers.
type denseAligner struct {
	prevCells, curCells []cell
	revA, revB          []alphabet.Code
}

// xDropDense is xDrop with the dense-clear reference extension.
func (al *denseAligner) xDropDense(a, b []alphabet.Code, seedA, seedB, k int, p Params) (Result, error) {
	if seedA < 0 || seedB < 0 || seedA+k > len(a) || seedB+k > len(b) {
		return Result{}, fmt.Errorf("align: seed (%d,%d,k=%d) outside sequences %d/%d",
			seedA, seedB, k, len(a), len(b))
	}
	var res Result
	for i := 0; i < k; i++ {
		res.Score += p.Scoring.Matrix.Score(a[seedA+i], b[seedB+i])
		if a[seedA+i] == b[seedB+i] {
			res.Matches++
		}
	}
	res.AlignLen = k

	r := al.xdropExtendDense(a[seedA+k:], b[seedB+k:], p)
	al.revA = reverseInto(al.revA, a[:seedA])
	al.revB = reverseInto(al.revB, b[:seedB])
	l := al.xdropExtendDense(al.revA, al.revB, p)

	res.Score += r.score + l.score
	res.Matches += r.matches + l.matches
	res.AlignLen += r.alen + l.alen
	res.Cells = int64(k) + r.cells + l.cells
	res.BeginA, res.EndA = seedA-l.extA, seedA+k+r.extA
	res.BeginB, res.EndB = seedB-l.extB, seedB+k+r.extB
	return res, nil
}

// xdropExtendDense is the pre-rewrite extension loop.
func (al *denseAligner) xdropExtendDense(a, b []alphabet.Code, p Params) extension {
	if len(a) == 0 || len(b) == 0 {
		return extension{}
	}
	openCost := int32(p.Scoring.GapOpen + p.Scoring.GapExtend)
	extCost := int32(p.Scoring.GapExtend)
	x := int32(p.XDrop)

	width := len(b) + 1
	al.prevCells = grow(al.prevCells, width)
	al.curCells = grow(al.curCells, width)
	prev, cur := al.prevCells, al.curCells
	for j := range prev {
		prev[j] = deadCell
	}
	prev[0] = cell{h: 0, e: negInf, f: negInf}

	best := extension{}
	bestScore := int32(0)
	lo, hi := 0, 0
	var cells int64

	// Row 0: a run of E cells (gap consuming b) while they stay above -x.
	for j := 1; j <= len(b); j++ {
		left := prev[j-1]
		e := left.h - openCost
		me, ae := left.mh, left.ah+1
		if ext := left.e - extCost; ext > e {
			e, me, ae = ext, left.me, left.ae+1
		}
		cells++
		if e < bestScore-x {
			break
		}
		prev[j] = cell{h: e, e: e, f: negInf, mh: me, me: me, ah: ae, ae: ae}
		hi = j
	}

	for i := 1; i <= len(a); i++ {
		ai := a[i-1]
		for j := range cur {
			cur[j] = deadCell
		}
		newLo, newHi := -1, -1
		for j := lo; j <= len(b); j++ {
			if j > hi+1 && (j == 0 || (cur[j-1].h <= negInf && cur[j-1].e <= negInf)) {
				break
			}
			cells++
			c := deadCell
			if j > 0 {
				if left := cur[j-1]; left.h > negInf || left.e > negInf {
					c.e = left.h - openCost
					c.me, c.ae = left.mh, left.ah+1
					if ext := left.e - extCost; ext > c.e {
						c.e, c.me, c.ae = ext, left.me, left.ae+1
					}
				}
			}
			if up := prev[j]; up.h > negInf || up.f > negInf {
				c.f = up.h - openCost
				c.mf, c.af = up.mh, up.ah+1
				if ext := up.f - extCost; ext > c.f {
					c.f, c.mf, c.af = ext, up.mf, up.af+1
				}
			}
			if j > 0 {
				if d := prev[j-1]; d.h > negInf {
					match := int32(0)
					if ai == b[j-1] {
						match = 1
					}
					c.h = d.h + int32(p.Scoring.Matrix.Score(ai, b[j-1]))
					c.mh, c.ah = d.mh+match, d.ah+1
				}
			}
			if c.e > c.h {
				c.h, c.mh, c.ah = c.e, c.me, c.ae
			}
			if c.f > c.h {
				c.h, c.mh, c.ah = c.f, c.mf, c.af
			}
			if c.h < bestScore-x {
				continue // cell dies; cur[j] stays dead
			}
			cur[j] = c
			if newLo == -1 {
				newLo = j
			}
			newHi = j
			if c.h > bestScore {
				bestScore = c.h
				best = extension{
					score: int(c.h), matches: int(c.mh), alen: int(c.ah),
					extA: i, extB: j,
				}
			}
		}
		if newLo == -1 {
			break
		}
		lo, hi = newLo, newHi
		prev, cur = cur, prev
	}
	best.cells = cells
	return best
}

// diffXDrop runs one seeded pair through the kernel and the reference and
// fails unless the whole Result — score, statistics, extents and the cell
// tally the virtual clock is charged from — and the error status agree.
func diffXDrop(t testing.TB, xd *xdKernel, ref *denseAligner, x, y []alphabet.Code, seedA, seedB, k int, p Params) {
	t.Helper()
	got, err1 := xd.xDrop(x, y, seedA, seedB, k, p)
	want, err2 := ref.xDropDense(x, y, seedA, seedB, k, p)
	if (err1 == nil) != (err2 == nil) || got != want {
		t.Fatalf("lens %d/%d seed (%d,%d,k=%d) xdrop %d gaps (%d,%d):\npacked %+v (%v)\ndense  %+v (%v)",
			len(x), len(y), seedA, seedB, k, p.XDrop, p.Scoring.GapOpen, p.Scoring.GapExtend,
			got, err1, want, err2)
	}
}

// lettersSeq draws n residues uniformly from the given letters.
func lettersSeq(rng *rand.Rand, n int, letters ...alphabet.Code) []alphabet.Code {
	s := make([]alphabet.Code, n)
	for i := range s {
		s[i] = letters[rng.Intn(len(letters))]
	}
	return s
}

// polyASeq is random sequence interrupted by runs of A (code 0).
func polyASeq(rng *rand.Rand, n int) []alphabet.Code {
	s := randomSeq(rng, n)
	for at := 0; at < n; at += 10 + rng.Intn(60) {
		for run := 5 + rng.Intn(40); run > 0 && at < n; run-- {
			s[at] = 0
			at++
		}
	}
	return s
}

// tandemSeq is n residues of unit repeated end to end, starting at unit[phase].
func tandemSeq(unit []alphabet.Code, phase, n int) []alphabet.Code {
	s := make([]alphabet.Code, n)
	for i := range s {
		s[i] = unit[(phase+i)%len(unit)]
	}
	return s
}

// diffPairKinds are the sequence-pair shapes of the differential test. The
// low-complexity kinds are tie-heavy: whole anti-diagonals of equal scores,
// where only the priority bits keep the packed selection on the reference's
// path. On an identical pair a new best lands on every row, on a tandem
// repeat on most rows and sometimes twice in one, so the band loop's
// new-best exit and resume run constantly.
var diffPairKinds = []struct {
	name string
	make func(rng *rand.Rand, n int) (x, y []alphabet.Code)
}{
	{"unrelated", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		return randomSeq(rng, n), randomSeq(rng, 6+rng.Intn(n))
	}},
	{"homolog", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		x = randomSeq(rng, n)
		return x, mutateSeq(rng, x, 0.3*rng.Float64(), rng.Intn(6))
	}},
	{"two-letter", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		l1, l2 := alphabet.Code(rng.Intn(20)), alphabet.Code(rng.Intn(20))
		return lettersSeq(rng, n, l1, l2), lettersSeq(rng, 6+rng.Intn(n), l1, l2)
	}},
	{"poly-A", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		x = polyASeq(rng, n)
		if rng.Intn(2) == 0 {
			return x, polyASeq(rng, 6+rng.Intn(n))
		}
		return x, mutateSeq(rng, x, 0.1, rng.Intn(4))
	}},
	{"identical", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		x = randomSeq(rng, n)
		return x, append([]alphabet.Code(nil), x...)
	}},
	{"tandem-repeat", func(rng *rand.Rand, n int) (x, y []alphabet.Code) {
		unit := randomSeq(rng, 1+rng.Intn(12))
		x = tandemSeq(unit, 0, n)
		y = tandemSeq(unit, rng.Intn(len(unit)), 6+rng.Intn(n))
		if rng.Intn(2) == 0 {
			return x, y
		}
		return x, mutateSeq(rng, y, 0.05, rng.Intn(3))
	}},
}

// TestXDropDenseMatchesBanded holds the packed-lane x-drop extension
// bit-identical to the nine-field reference over the benchmark's length
// range, every gap model that changes which ties occur ((0,1) makes opening
// and extending cost the same), x-drop values from "prune everything" to
// "prune almost nothing", and seeds that sit on the homologous diagonal, off
// it (mismatching residues, as substitute k-mers give), and flush against
// either end of a sequence (an empty flank).
func TestXDropDenseMatchesBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xd, ref := new(xdKernel), &denseAligner{}
	trials := 24
	if testing.Short() {
		trials = 6
	}
	const k = 6
	for _, xdrop := range []int{0, 10, 49, 200} {
		for _, gap := range [][2]int{{11, 1}, {5, 2}, {0, 1}} {
			p := Params{Scoring: Scoring{Matrix: DefaultScoring().Matrix, GapOpen: gap[0], GapExtend: gap[1]}, XDrop: xdrop}
			for _, kind := range diffPairKinds {
				for trial := 0; trial < trials; trial++ {
					x, y := kind.make(rng, k+rng.Intn(700-k))
					seedA, seedB := rng.Intn(len(x)-k+1), rng.Intn(len(y)-k+1)
					switch trial % 3 {
					case 1: // on the main diagonal: where a homolog extends furthest
						seedA = min(seedA, len(y)-k)
						seedB = seedA
					case 2: // an empty flank on one side of each sequence
						seedA, seedB = (len(x)-k)*rng.Intn(2), (len(y)-k)*rng.Intn(2)
					}
					diffXDrop(t, xd, ref, x, y, seedA, seedB, k, p)
				}
			}
		}
	}
}

// FuzzXDropMatchesDense is the same comparison on fuzzer-chosen input: any
// residues of the full 24-letter alphabet, any seed inside the pair, any
// parameters in the reference's range.
func FuzzXDropMatchesDense(f *testing.F) {
	polyA := make([]byte, 120)
	twoLetter := []byte("ALALLAALALAALLLAALALALLALAALALLLAALLAALALALAALLALALA")
	protein := []byte("MKVLAWHPLCQERNDYFIWWHHCCMKVLAWHPLCGGSTPAMKVLAWHPLC")
	f.Add(protein, protein, uint16(6), uint16(6), uint8(6), uint16(49), uint8(11), uint8(1))
	f.Add(protein, protein[9:], uint16(20), uint16(11), uint8(6), uint16(49), uint8(11), uint8(1))
	f.Add(polyA, polyA[:77], uint16(30), uint16(3), uint8(6), uint16(49), uint8(11), uint8(1))
	f.Add(polyA, polyA, uint16(0), uint16(114), uint8(6), uint16(200), uint8(0), uint8(1))
	f.Add(twoLetter, twoLetter[3:], uint16(7), uint16(0), uint8(4), uint16(10), uint8(5), uint8(2))
	f.Add(twoLetter, protein, uint16(0), uint16(0), uint8(0), uint16(0), uint8(0), uint8(0))
	f.Add([]byte("W"), []byte("W"), uint16(0), uint16(0), uint8(1), uint16(49), uint8(11), uint8(1))
	identical := make([]byte, 400)
	rand.New(rand.NewSource(1)).Read(identical)
	f.Add(identical, identical, uint16(200), uint16(200), uint8(6), uint16(49), uint8(11), uint8(1))
	tandem := bytes.Repeat([]byte("MKVWG"), 60)
	f.Add(tandem, tandem[2:250], uint16(102), uint16(100), uint8(6), uint16(49), uint8(11), uint8(1))
	xd, ref := new(xdKernel), &denseAligner{}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, seedA, seedB uint16, k uint8, xdrop uint16, gapOpen, gapExtend uint8) {
		const maxLen = 1 << 10 // keeps the reference's la x lb row clears cheap
		toCodes := func(raw []byte) []alphabet.Code {
			raw = raw[:min(len(raw), maxLen)]
			codes := make([]alphabet.Code, len(raw))
			for i, c := range raw {
				codes[i] = alphabet.Code(c % alphabet.Size)
			}
			return codes
		}
		x, y := toCodes(rawA), toCodes(rawB)
		kk := min(int(k)%8, len(x), len(y))
		p := Params{
			Scoring: Scoring{Matrix: DefaultScoring().Matrix, GapOpen: int(gapOpen), GapExtend: int(gapExtend)},
			XDrop:   int(xdrop),
		}
		diffXDrop(t, xd, ref, x, y, int(seedA)%(len(x)-kk+1), int(seedB)%(len(y)-kk+1), kk, p)
	})
}
