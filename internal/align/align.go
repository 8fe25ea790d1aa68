// Package align implements the pairwise protein alignment kernels PASTIS
// offloads to SeqAn (paper Section IV-E), from one fixed kernel table.
//
// The table's kernels are Smith-Waterman local alignment with affine gaps
// (Gotoh; "sw"), seed-and-extend alignment with gapped x-drop termination
// ("xd"), adaptive wavefront alignment (WFA/WFA-Adapt; "wfa"), and
// ungapped diagonal seed extension (the MMseqs2 prefilter score; "ug").
// Each is one type implementing the Kernel interface — one instance per
// pipeline worker, owning its reusable scratch buffers, with per-kernel
// DP-cell accounting (CellsComputed) so the virtual clock charges every
// kernel its true sparse cost. A table row makes a kernel a pipeline
// alignment mode everywhere (core.Config.Align, the -align flag, experiment
// sweeps, benchmarks) with no further wiring.
//
// Kernels also compose into staged cascades (Cascade, cascade.go): a spec
// string like "ug+wfa" or "ug:60+sw" names an ordered prefilter → rescue
// chain of table kernels in which pairs dismissed by a cheap stage never
// reach the expensive one. KernelFactory resolves cascade specs exactly
// like table names.
//
// The package also provides the alignment statistics the similarity
// filter needs (identity/ANI, shorter-sequence coverage, normalized score
// NS) on the shared Result type.
package align

import (
	"errors"
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/scoring"
)

// Scoring bundles the substitution matrix with affine gap penalties.
// A gap of length L costs Open + L*Extend (BLAST convention; the paper uses
// BLOSUM62 with open 11, extend 1).
type Scoring struct {
	Matrix    *scoring.Matrix
	GapOpen   int
	GapExtend int
}

// Result describes one pairwise alignment.
type Result struct {
	Score    int
	Matches  int // identical aligned residue pairs
	AlignLen int // alignment columns including gaps
	// Aligned half-open spans within each input sequence.
	BeginA, EndA int
	BeginB, EndB int
	// Cells is the number of DP cells evaluated, the work measure used to
	// charge the virtual clock for alignment time.
	Cells int64
}

// Identity returns the fraction of identical columns (the paper's ANI edge
// weight); zero-length alignments have identity 0.
func (r Result) Identity() float64 {
	if r.AlignLen == 0 {
		return 0
	}
	return float64(r.Matches) / float64(r.AlignLen)
}

// CoverageShorter returns the aligned fraction of the shorter sequence,
// the quantity the paper's 70% coverage filter thresholds.
func (r Result) CoverageShorter(lenA, lenB int) float64 {
	short := lenA
	span := r.EndA - r.BeginA
	if lenB < lenA {
		short = lenB
		span = r.EndB - r.BeginB
	} else if lenB == lenA {
		// Equal lengths: take the larger span so the value does not depend
		// on which sequence was passed as A (the query path aligns pairs in
		// the opposite orientation from the all-vs-all path and must agree
		// bit-for-bit).
		if sb := r.EndB - r.BeginB; sb > span {
			span = sb
		}
	}
	if short == 0 {
		return 0
	}
	return float64(span) / float64(short)
}

// NormalizedScore is the paper's NS measure: raw score over the shorter
// sequence length (no trace-back required, hence cheaper than ANI).
func (r Result) NormalizedScore(lenA, lenB int) float64 {
	short := lenA
	if lenB < lenA {
		short = lenB
	}
	if short == 0 {
		return 0
	}
	return float64(r.Score) / float64(short)
}

const negInf = int32(-1 << 28)

// Traceback direction encoding, packed one byte per cell:
// bits 0-1: H source (0 stop, 1 diag, 2 from E, 3 from F);
// bit 2: E extends a gap (vs opens from H); bit 3: same for F.
const (
	hStop    = 0
	hDiag    = 1
	hFromE   = 2
	hFromF   = 3
	eExtends = 1 << 2
	fExtends = 1 << 3
)

// grow returns s resized to n without reallocating when capacity allows.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reverseInto writes the reversal of s into dst (grown as needed).
func reverseInto(dst, s []alphabet.Code) []alphabet.Code {
	dst = grow(dst, len(s))
	for i, c := range s {
		dst[len(s)-1-i] = c
	}
	return dst
}

// smithWaterman computes the optimal local alignment between code sequences
// a and b with affine gaps, including traceback statistics.
func (sw *swKernel) smithWaterman(a, b []alphabet.Code, p Params) Result {
	sc := p.Scoring
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return Result{}
	}
	openCost := int32(sc.GapOpen + sc.GapExtend)
	extCost := int32(sc.GapExtend)

	// Rolling score rows; full packed direction matrix for the traceback.
	// Every cell read by the loops or the traceback is written first this
	// call, so only the row-0 prev buffers need explicit initialization.
	width := lb + 1
	sw.prevH = grow(sw.prevH, width)
	sw.curH = grow(sw.curH, width)
	sw.prevE = grow(sw.prevE, width) // E: gap in a (moves left, consumes b)
	sw.curE = grow(sw.curE, width)
	sw.prevF = grow(sw.prevF, width) // F: gap in b (moves up, consumes a)
	sw.curF = grow(sw.curF, width)
	sw.dirs = grow(sw.dirs, (la+1)*width)
	prevH, curH := sw.prevH, sw.curH
	prevE, curE := sw.prevE, sw.curE
	prevF, curF := sw.prevF, sw.curF
	dirs := sw.dirs

	for j := 0; j <= lb; j++ {
		prevH[j] = 0
		prevE[j], prevF[j] = negInf, negInf
	}
	var bestScore int32
	bestI, bestJ := 0, 0

	for i := 1; i <= la; i++ {
		curH[0], curE[0], curF[0] = 0, negInf, negInf
		row := dirs[i*width:]
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			var d byte
			e := curH[j-1] - openCost
			if ext := curE[j-1] - extCost; ext > e {
				e = ext
				d |= eExtends
			}
			curE[j] = e
			f := prevH[j] - openCost
			if ext := prevF[j] - extCost; ext > f {
				f = ext
				d |= fExtends
			}
			curF[j] = f
			diag := prevH[j-1] + int32(sc.Matrix.Score(ai, b[j-1]))
			h := int32(0)
			src := byte(hStop)
			if diag > h {
				h, src = diag, hDiag
			}
			if e > h {
				h, src = e, hFromE
			}
			if f > h {
				h, src = f, hFromF
			}
			curH[j] = h
			row[j] = d | src
			if h > bestScore {
				bestScore, bestI, bestJ = h, i, j
			}
		}
		prevH, curH = curH, prevH
		prevE, curE = curE, prevE
		prevF, curF = curF, prevF
	}
	if bestScore <= 0 {
		return Result{Cells: int64(la) * int64(lb)}
	}

	// Traceback from the best cell down to the first zero cell.
	res := Result{Score: int(bestScore), EndA: bestI, EndB: bestJ, Cells: int64(la) * int64(lb)}
	i, j := bestI, bestJ
	inH := true
	var gapLayer byte
	for i > 0 && j > 0 {
		d := dirs[i*width+j]
		if inH {
			switch d & 3 {
			case hStop:
				res.BeginA, res.BeginB = i, j
				return res
			case hDiag:
				if a[i-1] == b[j-1] {
					res.Matches++
				}
				res.AlignLen++
				i--
				j--
			case hFromE:
				inH, gapLayer = false, eExtends
			case hFromF:
				inH, gapLayer = false, fExtends
			}
			continue
		}
		// Inside a gap run: consume one gapped column, then either keep
		// extending the run or return to the H layer where it was opened.
		res.AlignLen++
		var extends bool
		if gapLayer == eExtends {
			extends = d&eExtends != 0
			j--
		} else {
			extends = d&fExtends != 0
			i--
		}
		if !extends {
			inH = true
		}
	}
	res.BeginA, res.BeginB = i, j
	return res
}

// ErrSequenceTooLong reports a pair the x-drop kernel's packed DP lanes
// cannot represent: len(a)+len(b) must stay below 2^19 (the alignment
// column count shares a word with the score) and the best conceivable score,
// min(len(a), len(b)) times the matrix maximum, below 2^22.
var ErrSequenceTooLong = errors.New("align: sequence pair too long for the x-drop kernel")

// The x-drop kernel keeps each Gotoh layer (H, E, F) of a DP cell as one
// packed int64 lane:
//
//	score<<40 | prio<<38 | matches<<19 | alen
//
// score is the signed top 24 bits; the low 40 bits are non-negative, so
// lanes order by (score, prio, matches, alen) under plain integer
// comparison and "the better predecessor, with its path statistics" is one
// max. A step is one add: penalties are multiples of 1<<40, so they touch
// only the score, and the constant carries the +1 alignment column (and the
// match bit, for a diagonal step) in its low bits.
//
// The two prio bits reproduce the strict-> tie rules of the textbook
// recurrence. Candidates of one max always carry distinct prio values, so
// when scores tie prio decides and the statistics below it never do:
//
//	lane  candidate         prio in the max  stored as
//	H     diagonal          2                0
//	H     E                 1                0
//	H     F                 0                0
//	E     open from H       3                1
//	E     extend E          1                1
//	F     open from H       2                0
//	F     extend F          0                0
//
// Stored lanes are renormalised by one mask (the "stored as" column) so the
// next step's constants land on the prio values above.
//
// A pruned cell is the ordinary lane value xdDead in all three layers: so
// negative that a candidate derived from it never beats one derived from a
// live cell and never passes the x-drop test, so the recurrence needs no
// liveness branches. The bit budget (docs/ARCHITECTURE.md derives it): live
// scores lie in (-2^20-2^21, 2^22) given xdMaxPenalty and ErrSequenceTooLong,
// xdDead is -2^22, and a candidate derived from a dead lane stays above
// -2^23, the bottom of the 24-bit field.
const (
	xdStatBits   = 19 // matches and alen are at most len(a)+len(b)
	xdStatMask   = 1<<xdStatBits - 1
	xdPrioShift  = 2 * xdStatBits
	xdScoreShift = xdPrioShift + 2
	xdMaxPairLen = 1<<xdStatBits - 1 // largest len(a)+len(b)
	xdMaxScore   = 1 << 22           // exclusive bound on a live score
	xdMaxPenalty = 1 << 20           // inclusive bound on XDrop, GapOpen, GapExtend

	xdPrioHi   = int64(2) << xdPrioShift
	xdPrioMask = int64(3) << xdPrioShift
	xdDead     = int64(-xdMaxScore) << xdScoreShift
)

// xdCell is what one DP row keeps per column: the H and F lanes. E only
// ever feeds the next column of the same row and lives in a register.
type xdCell struct{ h, f int64 }

var xdDeadCell = xdCell{h: xdDead, f: xdDead}

// xdPrepare checks the pair and the parameters against the lane format and
// (re)builds the diagonal-step table when the scoring matrix changed:
// substitution score, diagonal priority, match bit and the +1 column of
// every residue pair in one addend.
func (xd *xdKernel) xdPrepare(la, lb int, p Params) error {
	sc := p.Scoring
	if uint(p.XDrop) > xdMaxPenalty || uint(sc.GapOpen) > xdMaxPenalty || uint(sc.GapExtend) > xdMaxPenalty {
		return fmt.Errorf("align: x-drop %d, gap open %d, gap extend %d: each must lie in [0, %d]",
			p.XDrop, sc.GapOpen, sc.GapExtend, xdMaxPenalty)
	}
	if xd.xdMatrix != sc.Matrix {
		for x := range xd.xdDiag {
			for y := range xd.xdDiag[x] {
				step := int64(sc.Matrix.Score(alphabet.Code(x), alphabet.Code(y)))<<xdScoreShift | xdPrioHi | 1
				if x == y {
					step |= 1 << xdStatBits
				}
				xd.xdDiag[x][y] = step
			}
		}
		xd.xdMatrix, xd.xdMatrixMax = sc.Matrix, sc.Matrix.MaxScore()
	}
	if la+lb > xdMaxPairLen || min(la, lb)*xd.xdMatrixMax >= xdMaxScore {
		return fmt.Errorf("%w: lengths %d and %d (limit: %d combined)", ErrSequenceTooLong, la, lb, xdMaxPairLen)
	}
	return nil
}

// xDrop aligns a and b by extending a length-k seed anchored at positions
// seedA/seedB in both directions with gapped x-drop DP (paper Section IV-E:
// the alignment starts from the shared k-mer position and extends toward
// both sequence ends). With substitute k-mers the seed residues may
// mismatch; the seed region is scored against the matrix like any other.
// A pair beyond the packed lanes' reach fails with ErrSequenceTooLong.
func (xd *xdKernel) xDrop(a, b []alphabet.Code, seedA, seedB, k int, p Params) (Result, error) {
	if !seedWithin(seedA, seedB, k, len(a), len(b)) {
		return Result{}, fmt.Errorf("align: seed (%d,%d,k=%d) outside sequences %d/%d",
			seedA, seedB, k, len(a), len(b))
	}
	if err := xd.xdPrepare(len(a), len(b), p); err != nil {
		return Result{}, err
	}
	var res Result
	for i := 0; i < k; i++ {
		res.Score += p.Scoring.Matrix.Score(a[seedA+i], b[seedB+i])
		if a[seedA+i] == b[seedB+i] {
			res.Matches++
		}
	}
	res.AlignLen = k

	r := xd.xdropExtend(a[seedA+k:], b[seedB+k:], p)
	xd.revA = reverseInto(xd.revA, a[:seedA])
	xd.revB = reverseInto(xd.revB, b[:seedB])
	l := xd.xdropExtend(xd.revA, xd.revB, p)

	res.Score += r.score + l.score
	res.Matches += r.matches + l.matches
	res.AlignLen += r.alen + l.alen
	res.Cells = int64(k) + r.cells + l.cells
	res.BeginA, res.EndA = seedA-l.extA, seedA+k+r.extA
	res.BeginB, res.EndB = seedB-l.extB, seedB+k+r.extB
	return res, nil
}

// seedWithin reports whether a length-k seed at (seedA, seedB) lies inside
// sequences of lengths la and lb.
func seedWithin(seedA, seedB, k, la, lb int) bool {
	return seedA >= 0 && seedB >= 0 && seedA+k <= la && seedB+k <= lb
}

type extension struct {
	score, matches, alen int
	extA, extB           int
	cells                int64
}

// xdropExtend runs gapped extension DP anchored at (0,0) over rows of a,
// pruning cells whose H score drops more than XDrop below the running best;
// rows whose band dies end the extension. Work per row is the live band
// [lo, hi] of the row above plus one column, then an E-only chain for as
// long as it survives. The caller has run xdPrepare.
//
// Neither row buffer is ever cleared. A row reads the row above only over
// [lo-1, hi+1]: every column of [lo, hi] was stored by that row (xdDead
// where the cell was pruned), and the two flanking columns are re-deaded as
// sentinels once its band is known, so whatever an earlier row or an earlier
// call left elsewhere in the buffers is never looked at.
//
// Returns the best-scoring end point with its path statistics; the first
// cell in row-major order wins among equal scores.
func (xd *xdKernel) xdropExtend(a, b []alphabet.Code, p Params) extension {
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return extension{}
	}
	open := int64(p.Scoring.GapOpen+p.Scoring.GapExtend) << xdScoreShift
	openE := 1 + xdPrioMask - open // H → E: one more column; prio 3 beats extending E (1) on a tie
	openF := 1 + xdPrioHi - open   // H → F: likewise, prio 2 against extending F (0)
	ext := 1 - int64(p.Scoring.GapExtend)<<xdScoreShift
	x := int64(p.XDrop)

	xd.xdPrev = grow(xd.xdPrev, lb+1)
	xd.xdCur = grow(xd.xdCur, lb+1)
	prev, cur := xd.xdPrev, xd.xdCur

	// A cell survives iff its H lane is >= live and is a new best iff it is
	// >= better: both are exact tests on the score alone, because the
	// thresholds have zero low bits and a lane's low bits are non-negative.
	var best int64 // H lane of the best cell so far; zero is the anchor itself
	bestI, bestJ := 0, 0
	live, better := -x<<xdScoreShift, int64(1)<<xdScoreShift
	var cells int64

	// Row 0: a run of E cells (gap consuming b) while they stay above -x.
	prev[0] = xdCell{h: 0, f: xdDead}
	lo, hi := 0, 0
	lh, le := int64(0), xdDead
	for j := 1; j <= lb; j++ {
		cells++
		e := max(lh+openE, le+ext) &^ xdPrioHi
		if e < live {
			break
		}
		lh, le = e&^xdPrioMask, e
		prev[j] = xdCell{h: lh, f: xdDead}
		hi = j
	}
	if hi < lb {
		prev[hi+1] = xdDeadCell
	}

	for i := 1; i <= la; i++ {
		diagStep := &xd.xdDiag[a[i-1]]
		jlo, jhi := max(lo, 1), min(hi+1, lb)
		cells += int64(jhi - lo + 1)

		// Column 0 has no left or diagonal neighbour: H is F. It cannot be a
		// new best (F never exceeds the H above it).
		lh, le = xdDead, xdDead
		if lo == 0 {
			f := max(prev[0].h+openF, prev[0].f+ext) &^ xdPrioHi
			if f >= live {
				lh = f
			}
			cur[0] = xdCell{h: lh, f: lh}
		}

		// The band: columns the row above can reach. xdBand returns at each
		// new best; the best cell and the thresholds are updated here and the
		// band resumes at the next column, whose diagonal neighbour is the
		// upper neighbour of the best cell.
		diag := prev[jlo-1].h
		ups := prev[jlo : jhi+1]
		outs := cur[jlo : jhi+1]
		bs := b[jlo-1 : jhi]
		for t := 0; t < len(ups); t++ {
			var n int
			n, lh, le = xdBand(ups[t:], outs[t:], bs[t:], diagStep, diag, lh, le, live, better, openE, openF, ext)
			if t += n; t == len(ups) {
				break
			}
			best, bestI, bestJ = lh, i, jlo+t
			live = (lh>>xdScoreShift - x) << xdScoreShift
			better = (lh>>xdScoreShift + 1) << xdScoreShift
			diag = ups[t].h
		}

		// Beyond the reach of the row above only an E chain from this row can
		// stay alive; it ends at its first pruned cell. H is E there, below
		// the H it was opened from, so no new best.
		j := jhi + 1
		for ; j <= lb && lh != xdDead; j++ {
			cells++
			e := max(lh+openE, le+ext) &^ xdPrioHi
			if e < live {
				break
			}
			lh, le = e&^xdPrioMask, e
			cur[j] = xdCell{h: lh, f: xdDead}
		}

		// Columns lo..j-1 were stored this row; trim pruned cells off both
		// ends to get the new band, and fence it.
		last := j - 1
		for last >= lo && cur[last].h == xdDead {
			last--
		}
		if last < lo {
			break
		}
		for cur[lo].h == xdDead {
			lo++
		}
		hi = last
		if lo > 0 {
			cur[lo-1] = xdDeadCell
		}
		if hi < lb {
			cur[hi+1] = xdDeadCell
		}
		prev, cur = cur, prev
	}
	return extension{
		score:   int(best >> xdScoreShift),
		matches: int(best >> xdStatBits & xdStatMask),
		alen:    int(best & xdStatMask),
		extA:    bestI, extB: bestJ,
		cells: cells,
	}
}

// xdBand runs the band of one DP row: ups are the cells above outs, bs the
// residues of b in their columns, diag the H lane diagonal to outs[0], lh and
// le the lanes left of it. It returns at the first cell whose H lane is >=
// better, with that cell's index and lanes, or with len(ups) once the band is
// done.
//
// This is the kernel's hot loop, kept out of line so that none of
// xdropExtend's state competes for registers: it carries the DP lanes (lh,
// le, diag), the thresholds, the step constants and the cursor, and nothing
// else. Returning on a new best keeps the best cell and the x-drop out of it.
// The lh -> e -> h -> lh chain is made short: e enters the H max last, and
// the x-drop test reads H before its prio bits are cleared (exact, since
// live has zero low bits), so the test and the mask run side by side.
//
//go:noinline
func xdBand(ups, outs []xdCell, bs []alphabet.Code, diagStep *[alphabet.Size]int64,
	diag, lh, le, live, better, openE, openF, ext int64) (int, int64, int64) {
	outs, bs = outs[:len(ups)], bs[:len(ups)]
	for t := range ups {
		up := &ups[t]
		f := max(up.h+openF, up.f+ext) &^ xdPrioHi
		e := max(lh+openE, le+ext) &^ xdPrioHi
		h := max(diag+diagStep[bs[t]], f, e)
		diag = up.h
		dead := h < live
		h &^= xdPrioMask
		if dead {
			h, e, f = xdDead, xdDead, xdDead
		}
		outs[t] = xdCell{h: h, f: f}
		lh, le = h, e
		if h >= better {
			return t, lh, le
		}
	}
	return len(ups), lh, le
}

// ungappedExtend extends an exact diagonal match around a seed in both
// directions, stopping when the running score drops more than p.XDrop below
// the best (the MMseqs2-style ungapped diagonal score).
// Result.Cells counts every scored diagonal column, including the
// overshoot past the best endpoints that the x-drop rule explores.
func ungappedExtend(a, b []alphabet.Code, seedA, seedB, k int, p Params) Result {
	sc, xdrop := p.Scoring, p.XDrop
	res := Result{Cells: int64(k)}
	for i := 0; i < k; i++ {
		res.Score += sc.Matrix.Score(a[seedA+i], b[seedB+i])
		if a[seedA+i] == b[seedB+i] {
			res.Matches++
		}
	}
	res.AlignLen = k
	res.BeginA, res.EndA = seedA, seedA+k
	res.BeginB, res.EndB = seedB, seedB+k

	// Right.
	score, bestAt := res.Score, res.Score
	adv, matches, mAtBest := 0, res.Matches, res.Matches
	for i := 0; seedA+k+i < len(a) && seedB+k+i < len(b); i++ {
		res.Cells++
		score += sc.Matrix.Score(a[seedA+k+i], b[seedB+k+i])
		if a[seedA+k+i] == b[seedB+k+i] {
			matches++
		}
		if score > bestAt {
			bestAt, adv, mAtBest = score, i+1, matches
		}
		if score < bestAt-xdrop {
			break
		}
	}
	res.Score, res.Matches = bestAt, mAtBest
	res.EndA += adv
	res.EndB += adv
	res.AlignLen += adv

	// Left.
	score, bestAt = res.Score, res.Score
	adv, matches, mAtBest = 0, res.Matches, res.Matches
	for i := 1; seedA-i >= 0 && seedB-i >= 0; i++ {
		res.Cells++
		score += sc.Matrix.Score(a[seedA-i], b[seedB-i])
		if a[seedA-i] == b[seedB-i] {
			matches++
		}
		if score > bestAt {
			bestAt, adv, mAtBest = score, i, matches
		}
		if score < bestAt-xdrop {
			break
		}
	}
	res.Score, res.Matches = bestAt, mAtBest
	res.BeginA -= adv
	res.BeginB -= adv
	res.AlignLen += adv
	return res
}
