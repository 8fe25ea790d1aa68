package align

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alphabet"
)

// mutateSeq derives a homolog: each residue substituted with probability
// subRate, plus `indels` short (1-4 residue) insertions or deletions.
func mutateSeq(rng *rand.Rand, a []alphabet.Code, subRate float64, indels int) []alphabet.Code {
	b := append([]alphabet.Code(nil), a...)
	for i := range b {
		if rng.Float64() < subRate {
			b[i] = alphabet.Code(rng.Intn(20))
		}
	}
	for j := 0; j < indels; j++ {
		l := 1 + rng.Intn(4)
		if rng.Intn(2) == 0 && len(b) > l+10 {
			at := rng.Intn(len(b) - l)
			b = append(b[:at], b[at+l:]...)
		} else {
			at := rng.Intn(len(b))
			ins := randomSeq(rng, l)
			b = append(b[:at], append(ins, b[at:]...)...)
		}
	}
	return b
}

// aniAccept is the pipeline's default ANI similarity decision.
func aniAccept(r Result, lenA, lenB int) bool {
	return r.Identity() >= 0.30 && r.CoverageShorter(lenA, lenB) >= 0.70
}

func TestKernelRegistry(t *testing.T) {
	names := Kernels()
	want := []string{"sw", "xd", "wfa", "ug", "ug+wfa"}
	if len(names) != len(want) {
		t.Fatalf("registered kernels %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered kernels %v, want %v", names, want)
		}
	}
	for _, n := range names {
		k, err := NewKernel(n)
		if err != nil {
			t.Fatal(err)
		}
		if k.Name() != n {
			t.Errorf("kernel %q reports name %q", n, k.Name())
		}
		if k.CellsComputed() != 0 {
			t.Errorf("fresh kernel %q has nonzero cells", n)
		}
	}
	if _, err := NewKernel("nope"); err == nil {
		t.Error("unknown kernel should fail")
	}
}

// The WFA kernel must reproduce Smith-Waterman's accept/reject decisions
// under the default ANI thresholds on homologous pairs down to ~70%
// identity — the candidate-set regime it is a fast path for — and must do
// so in at most a fifth of SW's DP cells on the ≥90%-identity pairs the
// acceptance criterion targets.
func TestWFAMatchesSWDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := DefaultParams()
	wfa, _ := NewKernel("wfa")
	sw, _ := NewKernel("sw")
	var highSW, highWFA int64
	for trial := 0; trial < 120; trial++ {
		n := 120 + rng.Intn(250)
		subRate := rng.Float64() * 0.30 // pairwise identity >= ~70%
		a := randomSeq(rng, n)
		b := mutateSeq(rng, a, subRate, rng.Intn(3))
		rs, err := sw.Align(a, b, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := wfa.Align(a, b, nil, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := aniAccept(rw, len(a), len(b)), aniAccept(rs, len(a), len(b)); got != want {
			t.Errorf("trial %d (sub=%.2f): wfa decision %v != sw %v (wfa id=%.3f cov=%.3f, sw id=%.3f cov=%.3f)",
				trial, subRate, got, want, rw.Identity(), rw.CoverageShorter(len(a), len(b)),
				rs.Identity(), rs.CoverageShorter(len(a), len(b)))
		}
		if rw.EndA != len(a) || rw.EndB != len(b) || rw.BeginA != 0 || rw.BeginB != 0 {
			t.Fatalf("trial %d: wfa spans not global: %+v", trial, rw)
		}
		if subRate <= 0.10 {
			highSW += rs.Cells
			highWFA += rw.Cells
		}
	}
	if highSW == 0 {
		t.Fatal("no high-identity trials sampled")
	}
	if highWFA*5 > highSW {
		t.Errorf("wfa cells %d not >= 5x cheaper than sw %d on >=90%%-identity pairs (%.1fx)",
			highWFA, highSW, float64(highSW)/float64(highWFA))
	}
}

// WFA on identical sequences consumes exactly one extension pass.
func TestWFAIdentical(t *testing.T) {
	p := DefaultParams()
	wfa, _ := NewKernel("wfa")
	s := codes(t, "MKVLAWHPLCQERNDYFI")
	r, err := wfa.Align(s, s, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, c := range s {
		want += p.Scoring.Matrix.Score(c, c)
	}
	if r.Score != want || r.Matches != len(s) || r.AlignLen != len(s) {
		t.Errorf("self alignment: %+v, want score %d over %d columns", r, want, len(s))
	}
	if r.Cells >= int64(len(s)*len(s)) {
		t.Errorf("wfa used %d cells on identical pair, full DP is %d", r.Cells, len(s)*len(s))
	}
	if empty, err := wfa.Align(nil, s, nil, p); err != nil || empty != (Result{}) {
		t.Errorf("empty input: %+v, %v", empty, err)
	}
}

// WFA must bridge an indel with a gap: identity stays high and the
// alignment length reflects the gap columns.
func TestWFABridgesGap(t *testing.T) {
	p := DefaultParams()
	wfa, _ := NewKernel("wfa")
	a := codes(t, "MKVLAWHPLCQERNDYFIWWHHCCMKVLAWHPLC")
	b := append(append([]alphabet.Code{}, a[:15]...), a[18:]...) // 3-residue deletion
	r, err := wfa.Align(a, b, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Matches != len(b) {
		t.Errorf("matches = %d, want %d", r.Matches, len(b))
	}
	if r.AlignLen != len(a) {
		t.Errorf("alignment length = %d, want %d (matches + 3-gap)", r.AlignLen, len(a))
	}
}

// Every registered kernel must be orientation-symmetric under pair swap:
// Align(a,b) and Align(b,a) produce the same score and column statistics
// with the A/B spans mirrored. This is the canonical-orientation invariant
// alignPair relies on for bit-identical similarity graphs — the mirror
// block of the process grid sees each pair transposed, and the kernel must
// not let the transposed view leak into the retained statistics.
func TestKernelOrientationSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := DefaultParams()
	for _, name := range Kernels() {
		k, err := NewKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 60; trial++ {
			n := 60 + rng.Intn(180)
			a := randomSeq(rng, n)
			// Substitution-only homolog so planted seed positions stay valid
			// in both sequences.
			b := append([]alphabet.Code(nil), a...)
			for i := range b {
				if rng.Float64() < 0.15 {
					b[i] = alphabet.Code(rng.Intn(20))
				}
			}
			const seedK = 6
			at := rng.Intn(n - seedK)
			copy(b[at:at+seedK], a[at:at+seedK]) // guarantee one shared k-mer
			seeds := []Seed{{PosA: at, PosB: at, K: seedK}}
			mirrored := []Seed{{PosA: at, PosB: at, K: seedK}}

			fwd, err := k.Align(a, b, seeds, p)
			if err != nil {
				t.Fatal(err)
			}
			rev, err := k.Align(b, a, mirrored, p)
			if err != nil {
				t.Fatal(err)
			}
			if fwd.Score != rev.Score || fwd.Matches != rev.Matches || fwd.AlignLen != rev.AlignLen {
				t.Fatalf("%s trial %d: stats not symmetric: %+v vs %+v", name, trial, fwd, rev)
			}
			if fwd.BeginA != rev.BeginB || fwd.EndA != rev.EndB ||
				fwd.BeginB != rev.BeginA || fwd.EndB != rev.EndA {
				t.Fatalf("%s trial %d: spans not mirrored: %+v vs %+v", name, trial, fwd, rev)
			}
			if got, want := aniAccept(fwd, len(a), len(b)), aniAccept(rev, len(b), len(a)); got != want {
				t.Fatalf("%s trial %d: decision not symmetric", name, trial)
			}
		}
	}
}

// The seeded kernels must skip out-of-range seeds rather than fail, and
// return a zero Result when no seed survives — the contract alignPair's
// historical XDrop loop established.
func TestKernelSeedHandling(t *testing.T) {
	p := DefaultParams()
	a := codes(t, "MKVLAWHPLCQERNDYFI")
	for _, name := range []string{"xd", "ug"} {
		k, err := NewKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		bad := []Seed{{PosA: len(a) - 2, PosB: 0, K: 6}, {PosA: -1, PosB: 0, K: 6}}
		r, err := k.Align(a, a, bad, p)
		if err != nil {
			t.Fatalf("%s: out-of-range seeds should be skipped: %v", name, err)
		}
		if r != (Result{}) {
			t.Errorf("%s: no valid seed should yield a zero result, got %+v", name, r)
		}
		r, err = k.Align(a, a, append(bad, Seed{PosA: 6, PosB: 6, K: 6}), p)
		if err != nil || r.Score <= 0 {
			t.Errorf("%s: valid seed after bad ones should align: %+v, %v", name, r, err)
		}
	}
}

// A pair the x-drop lanes cannot hold is an error from the xd kernel and
// from a cascade that reaches it — never a pair "whose seeds fell off", which
// is what swallowing every XDrop error used to make of it. Out-of-range
// seeds on the same call are still skipped, and ug has no such bound.
func TestKernelReportsOverlongPair(t *testing.T) {
	s := randomSeq(rand.New(rand.NewSource(19)), 1<<18)
	seeds := []Seed{{PosA: -1, PosB: 0, K: 6}, {PosA: 100, PosB: 100, K: 6}}
	p := DefaultParams()
	for _, name := range []string{"xd", "ug+xd"} {
		k, err := NewKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := k.Align(s, s, seeds, p); !errors.Is(err, ErrSequenceTooLong) {
			t.Errorf("%s on 2x%d residues: %+v, %v; want ErrSequenceTooLong", name, len(s), r, err)
		}
		if r, err := k.Align(s[:len(s)-1], s[:len(s)-1], seeds, p); err != nil || r.Matches != len(s)-1 {
			t.Errorf("%s one residue under the bound: %+v, %v", name, r, err)
		}
	}
	ug, _ := NewKernel("ug")
	if r, err := ug.Align(s, s, seeds, p); err != nil || r.Matches != len(s) {
		t.Errorf("ug on 2x%d residues: %+v, %v", len(s), r, err)
	}
}

// Kernel instances must be reusable: a stream of differently-sized problems
// through one instance gives results bit-identical to fresh instances.
func TestKernelReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := DefaultParams()
	for _, name := range Kernels() {
		reused, err := NewKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			// Long before short and, for the banded kernels, a pair that runs
			// to the end before one abandoned at the first unrelated residues:
			// the orders that leave the most behind in reused rows.
			n := 30 + rng.Intn(150)
			if trial%4 == 0 {
				n = 400 + rng.Intn(300)
			}
			a := randomSeq(rng, n)
			b := mutateSeq(rng, a, 0.2, 1)
			if trial%4 == 2 {
				b = append(a[:12:12], randomSeq(rng, 100+rng.Intn(200))...)
			}
			var seeds []Seed
			if len(b) > 8 {
				seeds = []Seed{{PosA: 0, PosB: 0, K: 6}}
			}
			fresh, err := NewKernel(name)
			if err != nil {
				t.Fatal(err)
			}
			got, err1 := reused.Align(a, b, seeds, p)
			want, err2 := fresh.Align(a, b, seeds, p)
			if (err1 == nil) != (err2 == nil) || got != want {
				t.Fatalf("%s trial %d: reused %+v (%v) != fresh %+v (%v)",
					name, trial, got, err1, want, err2)
			}
		}
	}
}

// BenchmarkAlignKernels sweeps every registered kernel over identity and
// length, reporting DP cells per pair next to wall time: the table that
// shows where each kernel's cost regime sits (sw flat in identity, xd/wfa
// shrinking as identity rises, ug near-free).
func BenchmarkAlignKernels(b *testing.B) {
	for _, name := range Kernels() {
		for _, ident := range []float64{0.95, 0.80, 0.60} {
			for _, n := range []int{100, 300} {
				b.Run(fmt.Sprintf("%s/id%.0f/len%d", name, ident*100, n), func(b *testing.B) {
					rng := rand.New(rand.NewSource(3))
					k, err := NewKernel(name)
					if err != nil {
						b.Fatal(err)
					}
					p := DefaultParams()
					x := randomSeq(rng, n)
					y := mutateSeq(rng, x, 1-ident, 1)
					seeds := []Seed{{PosA: 0, PosB: 0, K: 6}}
					copy(y[:6], x[:6])
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := k.Align(x, y, seeds, p); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(k.CellsComputed())/float64(b.N), "cells/op")
				})
			}
		}
	}
}
