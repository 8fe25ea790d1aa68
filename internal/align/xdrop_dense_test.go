package align

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
)

// The reference x-drop extension: full row clears between DP rows (worst
// case O(la·lb) clearing work) and a fresh cur[j-1] load per cell, exactly
// as the kernel shipped before the banded-clear rewrite in align.go.
// TestXDropDenseMatchesBanded holds the two bit-identical. Do not optimize
// this copy.

// xDropDense is XDrop with the dense-clear reference extension.
func (al *Aligner) xDropDense(a, b []alphabet.Code, seedA, seedB, k int, p XDropParams) (Result, error) {
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
func (al *Aligner) xdropExtendDense(a, b []alphabet.Code, p XDropParams) extension {
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

// TestXDropDenseMatchesBanded holds the banded-clear x-drop extension
// bit-identical to the dense-clear reference across a randomized stream
// of seeded pairs, mixing unrelated and homologous sequences (homologs
// grow wide live bands, the case where the dirty-range bookkeeping has to
// agree with a full clear).
func TestXDropDenseMatchesBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	al := NewAligner()
	alDense := NewAligner()
	p := DefaultXDrop()
	const k = 6
	for trial := 0; trial < 400; trial++ {
		x := randomSeq(rng, rng.Intn(200)+k)
		y := randomSeq(rng, rng.Intn(200)+k)
		if trial%2 == 0 {
			y = append([]alphabet.Code(nil), x...)
			for i := 0; i < len(y)/6; i++ {
				y[rng.Intn(len(y))] = alphabet.Code(rng.Intn(20))
			}
		}
		seedA, seedB := rng.Intn(len(x)-k+1), rng.Intn(len(y)-k+1)
		got, err1 := al.XDrop(x, y, seedA, seedB, k, p)
		want, err2 := alDense.xDropDense(x, y, seedA, seedB, k, p)
		if (err1 == nil) != (err2 == nil) || got != want {
			t.Fatalf("trial %d (seed %d,%d): banded %+v (%v) != dense twin %+v (%v)",
				trial, seedA, seedB, got, err1, want, err2)
		}
	}
}
