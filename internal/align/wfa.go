package align

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/scoring"
)

// This file implements the wavefront alignment kernel (WFA; Marco-Sola et
// al. 2021, gap-affine recurrences) with the adaptive band reduction of
// WFA-Adapt. Instead of filling an la×lb DP matrix, wavefronts track — per
// accumulated penalty s and diagonal k — the furthest offset reachable, and
// runs of matching residues are consumed for free by greedy extension. Work
// is O(n·s): proportional to how *dissimilar* the pair is, which makes the
// kernel a natural fit for the post-SpGEMM candidate set where most
// surviving pairs are high-identity (the extreme-scale follow-up's cheap-
// kernel lever, arXiv:2303.01845).
//
// The wavefront search runs on the classic small-integer WFA penalties
// (match 0 / mismatch 4 / gap open 6 / extend 2) to pick the alignment
// path; the Result handed back to the similarity filter is that path
// re-scored under the pipeline's BLOSUM62 scoring, with matches and
// alignment columns carried along each wavefront cell so identity and
// coverage come out without a traceback. The alignment is global (spans
// cover both sequences end to end), so on the high-identity pairs the
// kernel targets it reproduces Smith-Waterman's accept/reject decisions —
// SW aligns those pairs essentially end to end as well — at a fraction of
// the DP cells.
//
// The global spans also mean CoverageShorter is 1 by construction: the
// pipeline's coverage filter (Config.MinCoverage) never rejects under this
// kernel, and a pair sharing only a local domain is judged on its global
// identity instead of being trimmed to the domain. Use sw or xd when
// local-segment discrimination (multi-domain proteins) matters.
//
// Wavefront storage is PACKED (the shenwei356/wfa technique the roadmap
// points at): the four per-diagonal fields — offset, matches, alignment
// columns, BLOSUM score — live interleaved in ONE []int32 at stride 4, so
// a diagonal is one cache line instead of four, a wave is one arena
// allocation instead of four, and prune/clamp reslice a single slice. The
// four-slice kernel this replaced lives in wfa_unpacked_test.go as the
// reference TestWFAPackedMatchesUnpacked holds it bit-identical to.
//
// The penalties are the WFA paper's defaults (mismatch 4 / open 6 /
// extend 2) divided by their gcd: a uniform scaling preserves the optimal
// path set exactly while halving the number of wavefronts — and therefore
// the cells — the search visits.
const (
	wfaMismatch = 2
	wfaGapOpen  = 3
	wfaGapExt   = 1
	// wfaPruneLag is the WFA-Adapt heuristic band: a diagonal whose
	// antidiagonal progress (v+h) lags the wavefront's best by more than
	// this is dropped. Large enough that the optimal path of a homologous
	// pair is never pruned in practice; the cut keeps the live band — and
	// therefore cells — near-constant instead of growing with s.
	wfaPruneLag = 48
)

// wfDead marks an unreachable diagonal in a wavefront.
const wfDead = int32(-1)

// Field offsets of one packed wavefront cell and its stride.
const (
	wfOff    = 0 // furthest offset h along b (wfDead = unreachable)
	wfMt     = 1 // matches on the path into the cell
	wfAl     = 2 // alignment columns on the path
	wfSc     = 3 // BLOSUM score of the path
	wfStride = 4
)

// wfWave is one wavefront of one component at one penalty: for each
// diagonal k in [lo,hi], the packed cell cells[(k-lo)*4 : (k-lo)*4+4]
// holds {off, mt, al, sc}.
type wfWave struct {
	lo, hi int32 // inclusive; hi < lo means the wave is empty
	cells  []int32
}

var wfEmptyWave = wfWave{lo: 1, hi: 0}

func (w *wfWave) get(k int32) (off, mt, al, sc int32, ok bool) {
	if k < w.lo || k > w.hi {
		return 0, 0, 0, 0, false
	}
	i := int(k-w.lo) * wfStride
	c := w.cells[i : i+wfStride]
	if c[wfOff] == wfDead {
		return 0, 0, 0, 0, false
	}
	return c[wfOff], c[wfMt], c[wfAl], c[wfSc], true
}

// wfArena hands out reusable int32 slices chunk-wise; chunks persist across
// Align calls so a worker's kernel instance stops allocating once warm.
type wfArena struct {
	chunks [][]int32
	ci     int
	used   int
}

func (ar *wfArena) reset() { ar.ci, ar.used = 0, 0 }

func (ar *wfArena) alloc(n int) []int32 {
	for {
		if ar.ci < len(ar.chunks) {
			c := ar.chunks[ar.ci]
			if ar.used+n <= len(c) {
				s := c[ar.used : ar.used+n : ar.used+n]
				ar.used += n
				return s
			}
			ar.ci++
			ar.used = 0
			continue
		}
		size := 1 << 14
		if n > size {
			size = n
		}
		ar.chunks = append(ar.chunks, make([]int32, size))
	}
}

// wfaKernel is the wavefront kernel instance: per-worker reusable wavefront
// storage plus the cumulative cell counter.
type wfaKernel struct {
	m, i, d []wfWave // wavefronts indexed by penalty s
	arena   wfArena
	cells   int64
	// self caches the matrix diagonal DIAG(C)[a] so the extension hot loop
	// scores a match with one indexed load instead of a 2D matrix lookup
	// (a[v] == b[off] inside the run, so Score(a[v], b[off]) is SelfScore).
	self       [alphabet.Size]int32
	selfMatrix *scoring.Matrix
}

func newWFAKernel() *wfaKernel { return &wfaKernel{} }

func (w *wfaKernel) Name() string { return "wfa" }

func (w *wfaKernel) CellsComputed() int64 { return w.cells }

// newWave allocates a wave for diagonals [lo,hi]. The cells are NOT
// initialized: the producer must write every diagonal's off field (wfDead
// for unreachable ones) — the k-loop's else branches do — and the stat
// fields of a dead diagonal are never read, so arena garbage there is fine.
func (w *wfaKernel) newWave(lo, hi int32) wfWave {
	n := int(hi-lo+1) * wfStride
	return wfWave{lo: lo, hi: hi, cells: w.arena.alloc(n)}
}

// waveAt returns the stored wave at penalty s, or an empty wave.
func waveAt(ws []wfWave, s int) *wfWave {
	if s < 0 || s >= len(ws) {
		return &wfEmptyWave
	}
	return &ws[s]
}

// Align runs the gap-affine wavefront search; seeds are ignored (like sw,
// the kernel is seed-oblivious).
func (w *wfaKernel) Align(a, b []alphabet.Code, _ []Seed, p Params) (Result, error) {
	la, lb := int32(len(a)), int32(len(b))
	if la == 0 || lb == 0 {
		return Result{}, nil
	}
	matrix := p.Scoring.Matrix
	if w.selfMatrix != matrix {
		for c := 0; c < alphabet.Size; c++ {
			w.self[c] = int32(matrix.SelfScore(alphabet.Code(c)))
		}
		w.selfMatrix = matrix
	}
	openCost := int32(p.Scoring.GapOpen + p.Scoring.GapExtend)
	extCost := int32(p.Scoring.GapExtend)
	kFinal := lb - la

	w.arena.reset()
	w.m, w.i, w.d = w.m[:0], w.i[:0], w.d[:0]
	var cells int64

	// Penalty 0: the single diagonal k=0 at offset 0, greedily extended.
	w0 := w.newWave(0, 0)
	w0.cells[wfOff], w0.cells[wfMt], w0.cells[wfAl], w0.cells[wfSc] = 0, 0, 0, 0
	cells++
	cells += wfExtend(&w0, a, b, &w.self)
	w.m = append(w.m, w0)
	w.i = append(w.i, wfEmptyWave)
	w.d = append(w.d, wfEmptyWave)
	if r, done := w.final(&w0, kFinal, la, lb, cells); done {
		w.cells += cells
		return r, nil
	}

	// Any global alignment costs at most all-mismatches plus one length-
	// difference gap; past a small slack over that, something is wrong.
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
		mo := waveAt(w.m, s-wfaGapOpen-wfaGapExt) // gap-open source
		mx := waveAt(w.m, s-wfaMismatch)          // mismatch source
		ie := waveAt(w.i, s-wfaGapExt)            // insertion-extend source
		de := waveAt(w.d, s-wfaGapExt)            // deletion-extend source

		lo, hi, any := wfBounds(mo, mx, ie, de, la, lb)
		if !any {
			w.m = append(w.m, wfEmptyWave)
			w.i = append(w.i, wfEmptyWave)
			w.d = append(w.d, wfEmptyWave)
			continue
		}
		// One arena grab serves all three components of this penalty.
		n3 := int(hi-lo+1) * wfStride
		buf := w.arena.alloc(3 * n3)
		mw := wfWave{lo: lo, hi: hi, cells: buf[:n3:n3]}
		iw := wfWave{lo: lo, hi: hi, cells: buf[n3 : 2*n3 : 2*n3]}
		dw := wfWave{lo: lo, hi: hi, cells: buf[2*n3 : 3*n3 : 3*n3]}
		mc, ic, dc := mw.cells, iw.cells, dw.cells
		// The source-wave accesses are inlined by hand: per diagonal the
		// loop resolves up to five neighbor cells, and a method call plus
		// re-derived slice headers per access is measurable here. Each
		// source is first probed by offset alone; the three path-stat
		// fields load only for the winning source (adjacent in the packed
		// cell, so the line is already resident).
		moc, mol, moh := mo.cells, mo.lo, mo.hi
		mxc, mxl, mxh := mx.cells, mx.lo, mx.hi
		iec, iel, ieh := ie.cells, ie.lo, ie.hi
		dec, del, deh := de.cells, de.lo, de.hi
		for k := lo; k <= hi; k++ {
			cells++
			ix := int(k-lo) * wfStride

			// I[s,k]: gap in a consuming b (h+1); open from M[s-o-e,k-1]
			// beats extend from I[s-e,k-1] on offset ties, mirroring the
			// Gotoh kernels' strictly-greater extension comparisons.
			// Boundary feasibility is decided per source BEFORE the max: a
			// source already at the sequence end cannot take the step
			// (offset+1 <= lb, i.e. offset < lb), but a feasible runner-up
			// still can.
			oOff, oJ := wfDead, 0
			if km1 := k - 1; km1 >= mol && km1 <= moh {
				j := int(km1-mol) * wfStride
				if o := moc[j+wfOff]; o != wfDead && o < lb {
					oOff, oJ = o, j
				}
			}
			eOff, eJ := wfDead, 0
			if km1 := k - 1; km1 >= iel && km1 <= ieh {
				j := int(km1-iel) * wfStride
				if o := iec[j+wfOff]; o != wfDead && o < lb {
					eOff, eJ = o, j
				}
			}
			if oOff != wfDead && (eOff == wfDead || oOff >= eOff) {
				ic[ix+wfOff], ic[ix+wfMt], ic[ix+wfAl], ic[ix+wfSc] =
					oOff+1, moc[oJ+wfMt], moc[oJ+wfAl]+1, moc[oJ+wfSc]-openCost
			} else if eOff != wfDead {
				ic[ix+wfOff], ic[ix+wfMt], ic[ix+wfAl], ic[ix+wfSc] =
					eOff+1, iec[eJ+wfMt], iec[eJ+wfAl]+1, iec[eJ+wfSc]-extCost
			} else {
				ic[ix+wfOff] = wfDead
			}

			// D[s,k]: gap in b consuming a (v+1, offset unchanged); the
			// boundary condition is offset-k <= la on each source.
			oOff, oJ = wfDead, 0
			if kp1 := k + 1; kp1 >= mol && kp1 <= moh {
				j := int(kp1-mol) * wfStride
				if o := moc[j+wfOff]; o != wfDead && o-k <= la {
					oOff, oJ = o, j
				}
			}
			eOff, eJ = wfDead, 0
			if kp1 := k + 1; kp1 >= del && kp1 <= deh {
				j := int(kp1-del) * wfStride
				if o := dec[j+wfOff]; o != wfDead && o-k <= la {
					eOff, eJ = o, j
				}
			}
			if oOff != wfDead && (eOff == wfDead || oOff >= eOff) {
				dc[ix+wfOff], dc[ix+wfMt], dc[ix+wfAl], dc[ix+wfSc] =
					oOff, moc[oJ+wfMt], moc[oJ+wfAl]+1, moc[oJ+wfSc]-openCost
			} else if eOff != wfDead {
				dc[ix+wfOff], dc[ix+wfMt], dc[ix+wfAl], dc[ix+wfSc] =
					eOff, dec[eJ+wfMt], dec[eJ+wfAl]+1, dec[eJ+wfSc]-extCost
			} else {
				dc[ix+wfOff] = wfDead
			}

			// M[s,k]: the mismatch step from M[s-x,k] (preferred on offset
			// ties, like the Gotoh diagonal), else the best same-s gap cell.
			best := wfDead
			var mt, al2, sc2 int32
			if k >= mxl && k <= mxh {
				j := int(k-mxl) * wfStride
				if x := mxc[j+wfOff]; x != wfDead {
					off := x + 1
					v := off - k
					if off <= lb && v <= la {
						// Greedy extension consumed every equal pair, so the
						// mismatch step always scores an unequal pair.
						best = off
						mt, al2, sc2 = mxc[j+wfMt], mxc[j+wfAl]+1,
							mxc[j+wfSc]+int32(matrix.Score(a[v-1], b[off-1]))
					}
				}
			}
			if ic[ix+wfOff] != wfDead && ic[ix+wfOff] > best {
				best, mt, al2, sc2 = ic[ix+wfOff], ic[ix+wfMt], ic[ix+wfAl], ic[ix+wfSc]
			}
			if dc[ix+wfOff] != wfDead && dc[ix+wfOff] > best {
				best, mt, al2, sc2 = dc[ix+wfOff], dc[ix+wfMt], dc[ix+wfAl], dc[ix+wfSc]
			}
			if best != wfDead {
				mc[ix+wfOff], mc[ix+wfMt], mc[ix+wfAl], mc[ix+wfSc] = best, mt, al2, sc2
			} else {
				mc[ix+wfOff] = wfDead
			}
		}

		cells += wfExtend(&mw, a, b, &w.self)
		if r, done := w.final(&mw, kFinal, la, lb, cells); done {
			w.cells += cells
			// Count the partial waves of this penalty before returning.
			w.m = append(w.m, mw)
			w.i = append(w.i, iw)
			w.d = append(w.d, dw)
			return r, nil
		}
		wfPrune(&mw)
		// The reduction applies to all components: without clamping, I/D
		// gap-extension chains would keep every diagonal of the unpruned
		// band alive and the wavefront would regrow ±1 per penalty.
		if mw.hi >= mw.lo {
			wfClamp(&iw, mw.lo, mw.hi)
			wfClamp(&dw, mw.lo, mw.hi)
		}
		w.m = append(w.m, mw)
		w.i = append(w.i, iw)
		w.d = append(w.d, dw)
	}
}

// wfBounds derives the diagonal range wave s can populate from its four
// source waves, clamped to the feasible diagonals of the pair. Empty
// source waves contribute nothing — the emptiness check must precede the
// ±1 widening, or an empty wave's sentinel bounds (lo=1, hi=0) would
// masquerade as the range [0,1].
func wfBounds(mo, mx, ie, de *wfWave, la, lb int32) (lo, hi int32, any bool) {
	lo, hi = int32(1), int32(0)
	add := func(w *wfWave, dl, dh int32) {
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

// wfExtend greedily advances every live M diagonal through its run of equal
// residues, accumulating match statistics; returns the comparisons made
// (the extension share of the kernel's cell count). The run's statistics
// accumulate in registers and are written back once per diagonal — the
// per-residue score is self[a[v]] because the residues are equal, which is
// bit-identical to Score(a[v], b[off]) on the symmetric matrix diagonal.
func wfExtend(wv *wfWave, a, b []alphabet.Code, self *[alphabet.Size]int32) int64 {
	la, lb := int32(len(a)), int32(len(b))
	var n int64
	cells := wv.cells
	for k, i := wv.lo, 0; k <= wv.hi; k, i = k+1, i+wfStride {
		c := cells[i : i+wfStride]
		off := c[wfOff]
		if off == wfDead {
			continue
		}
		// end = min(lb, la+k) folds the two boundary tests of the original
		// loop (off < lb && off-k < la) into one comparison per residue.
		end := lb
		if la+k < end {
			end = la + k
		}
		v := off - k
		start := off
		var sc int32
		for off < end && a[v] == b[off] {
			sc += self[a[v]]
			off++
			v++
		}
		run := off - start
		n += int64(run)
		if off < end {
			n++ // the comparison that ended the run
		}
		c[wfOff] = off
		c[wfMt] += run
		c[wfAl] += run
		c[wfSc] += sc
	}
	return n
}

// final reports the finished alignment once the M wavefront reaches the
// terminal diagonal's end offset (h = lb, hence v = la: the global corner).
func (w *wfaKernel) final(wv *wfWave, kFinal, la, lb int32, cells int64) (Result, bool) {
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

// wfPrune applies the WFA-Adapt band reduction: diagonals whose
// antidiagonal progress (v+h = 2·offset−k) lags the wave's furthest cell by
// more than wfaPruneLag are dropped from the edges of the band. Only the
// bounds shrink — the furthest diagonal always survives — so the search
// stays deterministic and terminates; the heuristic can in principle prune
// an optimal path, which is the documented adaptive/approximate trade.
func wfPrune(wv *wfWave) {
	best := int32(-1 << 30)
	for k := wv.lo; k <= wv.hi; k++ {
		if off := wv.cells[int(k-wv.lo)*wfStride+wfOff]; off != wfDead {
			if p := 2*off - k; p > best {
				best = p
			}
		}
	}
	lo, hi := wv.lo, wv.hi
	for lo <= hi {
		off := wv.cells[int(lo-wv.lo)*wfStride+wfOff]
		if off != wfDead && 2*off-lo >= best-wfaPruneLag {
			break
		}
		lo++
	}
	for hi >= lo {
		off := wv.cells[int(hi-wv.lo)*wfStride+wfOff]
		if off != wfDead && 2*off-hi >= best-wfaPruneLag {
			break
		}
		hi--
	}
	if lo > hi {
		*wv = wfEmptyWave
		return
	}
	wv.cells = wv.cells[int(lo-wv.lo)*wfStride : int(hi-wv.lo+1)*wfStride]
	wv.lo, wv.hi = lo, hi
}

// wfClamp restricts a wave to the diagonal range [lo,hi].
func wfClamp(wv *wfWave, lo, hi int32) {
	if lo < wv.lo {
		lo = wv.lo
	}
	if hi > wv.hi {
		hi = wv.hi
	}
	if lo > hi {
		*wv = wfEmptyWave
		return
	}
	wv.cells = wv.cells[int(lo-wv.lo)*wfStride : int(hi-wv.lo+1)*wfStride]
	wv.lo, wv.hi = lo, hi
}
