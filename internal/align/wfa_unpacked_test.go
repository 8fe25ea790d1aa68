package align

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/scoring"
)

// This file is the reference wavefront kernel: four parallel
// off/mt/al/sc []int32 slices per wavefront, exactly as the kernel shipped
// before wfa.go folded them into one stride-4 slice. It exists only as the
// reference that TestWFAPackedMatchesUnpacked proves the packed kernel
// bit-identical to. Behavior changes belong in wfa.go only.

// uwfWave is one wavefront with the unpacked four-slice layout.
type uwfWave struct {
	lo, hi int32 // inclusive; hi < lo means the wave is empty
	off    []int32
	mt     []int32
	al     []int32
	sc     []int32
}

var uwfEmptyWave = uwfWave{lo: 1, hi: 0}

func (w *uwfWave) get(k int32) (off, mt, al, sc int32, ok bool) {
	if k < w.lo || k > w.hi {
		return 0, 0, 0, 0, false
	}
	i := k - w.lo
	if w.off[i] == wfDead {
		return 0, 0, 0, 0, false
	}
	return w.off[i], w.mt[i], w.al[i], w.sc[i], true
}

// wfaUnpackedKernel is the reference wavefront kernel instance.
type wfaUnpackedKernel struct {
	m, i, d []uwfWave
	arena   wfArena
	cells   int64
}

// newWFAUnpacked returns the unpacked reference wavefront kernel.
func newWFAUnpacked() Kernel { return &wfaUnpackedKernel{} }

func (w *wfaUnpackedKernel) Name() string { return "wfa-unpacked" }

func (w *wfaUnpackedKernel) CellsComputed() int64 { return w.cells }

// newWave allocates a wave for diagonals [lo,hi] with every diagonal dead.
func (w *wfaUnpackedKernel) newWave(lo, hi int32) uwfWave {
	n := int(hi - lo + 1)
	wv := uwfWave{lo: lo, hi: hi,
		off: w.arena.alloc(n), mt: w.arena.alloc(n), al: w.arena.alloc(n), sc: w.arena.alloc(n)}
	for i := range wv.off {
		wv.off[i] = wfDead
	}
	return wv
}

// uwaveAt returns the stored wave at penalty s, or an empty wave.
func uwaveAt(ws []uwfWave, s int) *uwfWave {
	if s < 0 || s >= len(ws) {
		return &uwfEmptyWave
	}
	return &ws[s]
}

// Align runs the gap-affine wavefront search on the unpacked layout.
func (w *wfaUnpackedKernel) Align(a, b []alphabet.Code, _ []Seed, p Params) (Result, error) {
	la, lb := int32(len(a)), int32(len(b))
	if la == 0 || lb == 0 {
		return Result{}, nil
	}
	matrix := p.Scoring.Matrix
	openCost := int32(p.Scoring.GapOpen + p.Scoring.GapExtend)
	extCost := int32(p.Scoring.GapExtend)
	kFinal := lb - la

	w.arena.reset()
	w.m, w.i, w.d = w.m[:0], w.i[:0], w.d[:0]
	var cells int64

	// Penalty 0: the single diagonal k=0 at offset 0, greedily extended.
	w0 := w.newWave(0, 0)
	w0.off[0], w0.mt[0], w0.al[0], w0.sc[0] = 0, 0, 0, 0
	cells++
	cells += uwfExtend(&w0, a, b, matrix)
	w.m = append(w.m, w0)
	w.i = append(w.i, uwfEmptyWave)
	w.d = append(w.d, uwfEmptyWave)
	if r, done := w.final(&w0, kFinal, la, lb, cells); done {
		w.cells += cells
		return r, nil
	}

	minLen := la
	if lb < minLen {
		minLen = lb
	}
	maxS := wfaMismatch*int(minLen) + wfaGapOpen + wfaGapExt*int(la+lb) + wfaMismatch

	for s := 1; ; s++ {
		if s > maxS {
			w.cells += cells
			return Result{}, fmt.Errorf("align: wfa wavefront exceeded penalty budget %d on %d x %d pair", maxS, la, lb)
		}
		mo := uwaveAt(w.m, s-wfaGapOpen-wfaGapExt) // gap-open source
		mx := uwaveAt(w.m, s-wfaMismatch)          // mismatch source
		ie := uwaveAt(w.i, s-wfaGapExt)            // insertion-extend source
		de := uwaveAt(w.d, s-wfaGapExt)            // deletion-extend source

		lo, hi, any := uwfBounds(mo, mx, ie, de, la, lb)
		if !any {
			w.m = append(w.m, uwfEmptyWave)
			w.i = append(w.i, uwfEmptyWave)
			w.d = append(w.d, uwfEmptyWave)
			continue
		}
		mw := w.newWave(lo, hi)
		iw := w.newWave(lo, hi)
		dw := w.newWave(lo, hi)
		for k := lo; k <= hi; k++ {
			cells++
			idx := k - lo

			// I[s,k]: gap in a consuming b (h+1).
			{
				oOff, oMt, oAl, oSc, okO := mo.get(k - 1)
				okO = okO && oOff+1 <= lb
				eOff, eMt, eAl, eSc, okE := ie.get(k - 1)
				okE = okE && eOff+1 <= lb
				if okO && (!okE || oOff >= eOff) {
					iw.off[idx], iw.mt[idx], iw.al[idx], iw.sc[idx] = oOff+1, oMt, oAl+1, oSc-openCost
				} else if okE {
					iw.off[idx], iw.mt[idx], iw.al[idx], iw.sc[idx] = eOff+1, eMt, eAl+1, eSc-extCost
				}
			}

			// D[s,k]: gap in b consuming a (v+1, offset unchanged).
			{
				oOff, oMt, oAl, oSc, okO := mo.get(k + 1)
				okO = okO && oOff-k <= la
				eOff, eMt, eAl, eSc, okE := de.get(k + 1)
				okE = okE && eOff-k <= la
				if okO && (!okE || oOff >= eOff) {
					dw.off[idx], dw.mt[idx], dw.al[idx], dw.sc[idx] = oOff, oMt, oAl+1, oSc-openCost
				} else if okE {
					dw.off[idx], dw.mt[idx], dw.al[idx], dw.sc[idx] = eOff, eMt, eAl+1, eSc-extCost
				}
			}

			// M[s,k]: the mismatch step from M[s-x,k], else the best gap cell.
			best := wfDead
			var mt, al2, sc2 int32
			if xOff, xMt, xAl, xSc, okX := mx.get(k); okX {
				off := xOff + 1
				v := off - k
				if off <= lb && v <= la {
					best = off
					mt, al2, sc2 = xMt, xAl+1, xSc+int32(matrix.Score(a[v-1], b[off-1]))
				}
			}
			if iw.off[idx] != wfDead && iw.off[idx] > best {
				best, mt, al2, sc2 = iw.off[idx], iw.mt[idx], iw.al[idx], iw.sc[idx]
			}
			if dw.off[idx] != wfDead && dw.off[idx] > best {
				best, mt, al2, sc2 = dw.off[idx], dw.mt[idx], dw.al[idx], dw.sc[idx]
			}
			if best != wfDead {
				mw.off[idx], mw.mt[idx], mw.al[idx], mw.sc[idx] = best, mt, al2, sc2
			}
		}

		cells += uwfExtend(&mw, a, b, matrix)
		if r, done := w.final(&mw, kFinal, la, lb, cells); done {
			w.cells += cells
			w.m = append(w.m, mw)
			w.i = append(w.i, iw)
			w.d = append(w.d, dw)
			return r, nil
		}
		uwfPrune(&mw)
		if mw.hi >= mw.lo {
			uwfClamp(&iw, mw.lo, mw.hi)
			uwfClamp(&dw, mw.lo, mw.hi)
		}
		w.m = append(w.m, mw)
		w.i = append(w.i, iw)
		w.d = append(w.d, dw)
	}
}

// uwfBounds derives the diagonal range wave s can populate.
func uwfBounds(mo, mx, ie, de *uwfWave, la, lb int32) (lo, hi int32, any bool) {
	lo, hi = int32(1), int32(0)
	add := func(w *uwfWave, dl, dh int32) {
		if w.lo > w.hi {
			return
		}
		l, h := w.lo+dl, w.hi+dh
		if !any || l < lo {
			lo = l
		}
		if !any || h > hi {
			hi = h
		}
		any = true
	}
	add(mx, 0, 0)
	add(mo, -1, +1)
	add(ie, +1, +1)
	add(de, -1, -1)
	if !any {
		return 0, 0, false
	}
	if lo < -la {
		lo = -la
	}
	if hi > lb {
		hi = lb
	}
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// uwfExtend greedily advances every live M diagonal through its match run.
func uwfExtend(wv *uwfWave, a, b []alphabet.Code, matrix *scoring.Matrix) int64 {
	la, lb := int32(len(a)), int32(len(b))
	var n int64
	for k := wv.lo; k <= wv.hi; k++ {
		idx := k - wv.lo
		off := wv.off[idx]
		if off == wfDead {
			continue
		}
		v := off - k
		for off < lb && v < la && a[v] == b[off] {
			n++
			wv.mt[idx]++
			wv.al[idx]++
			wv.sc[idx] += int32(matrix.Score(a[v], b[off]))
			off++
			v++
		}
		if off < lb && v < la {
			n++ // the comparison that ended the run
		}
		wv.off[idx] = off
	}
	return n
}

// final reports the finished alignment at the global corner.
func (w *wfaUnpackedKernel) final(wv *uwfWave, kFinal, la, lb int32, cells int64) (Result, bool) {
	off, mt, al, sc, ok := wv.get(kFinal)
	if !ok || off < lb {
		return Result{}, false
	}
	return Result{
		Score: int(sc), Matches: int(mt), AlignLen: int(al),
		BeginA: 0, EndA: int(la), BeginB: 0, EndB: int(lb),
		Cells: cells,
	}, true
}

// uwfPrune applies the WFA-Adapt band reduction.
func uwfPrune(wv *uwfWave) {
	best := int32(-1 << 30)
	for k := wv.lo; k <= wv.hi; k++ {
		if off := wv.off[k-wv.lo]; off != wfDead {
			if p := 2*off - k; p > best {
				best = p
			}
		}
	}
	lo, hi := wv.lo, wv.hi
	for lo <= hi {
		off := wv.off[lo-wv.lo]
		if off != wfDead && 2*off-lo >= best-wfaPruneLag {
			break
		}
		lo++
	}
	for hi >= lo {
		off := wv.off[hi-wv.lo]
		if off != wfDead && 2*off-hi >= best-wfaPruneLag {
			break
		}
		hi--
	}
	if lo > hi {
		*wv = uwfEmptyWave
		return
	}
	wv.off = wv.off[lo-wv.lo : hi-wv.lo+1]
	wv.mt = wv.mt[lo-wv.lo : hi-wv.lo+1]
	wv.al = wv.al[lo-wv.lo : hi-wv.lo+1]
	wv.sc = wv.sc[lo-wv.lo : hi-wv.lo+1]
	wv.lo, wv.hi = lo, hi
}

// uwfClamp restricts a wave to the diagonal range [lo,hi].
func uwfClamp(wv *uwfWave, lo, hi int32) {
	if lo < wv.lo {
		lo = wv.lo
	}
	if hi > wv.hi {
		hi = wv.hi
	}
	if lo > hi {
		*wv = uwfEmptyWave
		return
	}
	wv.off = wv.off[lo-wv.lo : hi-wv.lo+1]
	wv.mt = wv.mt[lo-wv.lo : hi-wv.lo+1]
	wv.al = wv.al[lo-wv.lo : hi-wv.lo+1]
	wv.sc = wv.sc[lo-wv.lo : hi-wv.lo+1]
	wv.lo, wv.hi = lo, hi
}
