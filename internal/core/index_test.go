package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/spmat"
)

// TestPostingsMatchBlock holds the k-mer-major postings to the target-major
// block they are laid out from: every k-mer's span, whole and cut to a panel,
// lists exactly the block's entries of that k-mer row, targets ascending —
// including k-mers past 2^32, where the keys split into segments — and a
// span galloping on from the previous k-mer's is the span searched afresh.
func TestPostingsMatchBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []spmat.Index{50, 3 << 32} {
		var ts []spmat.Triple[int32]
		kmers := make([]spmat.Index, 40)
		for i := range kmers {
			kmers[i] = rng.Int63n(int64(rows))
		}
		kmers[0], kmers[1] = 0, rows-1
		for _, k := range kmers {
			for c := 0; c < 30; c++ {
				if rng.Intn(3) == 0 {
					ts = append(ts, spmat.Triple[int32]{Row: k, Col: spmat.Index(c), Val: rng.Int31()})
				}
			}
		}
		blk, err := spmat.FromTriples(rows, 30, ts, func(x, _ int32) int32 { return x })
		if err != nil {
			t.Fatal(err)
		}
		p := newPostings(blk)
		if len(p.key) != blk.NNZ() {
			t.Fatalf("%d rows: %d postings for %d nonzeros", rows, len(p.key), blk.NNZ())
		}
		probes := append(kmers, rows/2, 1<<32)
		slices.Sort(probes)
		probes = slices.Compact(probes) // a batch row's k-mers are distinct
		for _, cut := range [][2]int32{{0, 30}, {7, 19}, {29, 30}} {
			from := 0 // each probe gallops on from the last one's end
			for _, k := range probes {
				var want, got []spmat.Triple[int32]
				for c := cut[0]; c < cut[1]; c++ {
					if v, ok := blk.At(k, spmat.Index(c)); ok {
						want = append(want, spmat.Triple[int32]{Row: k, Col: spmat.Index(c), Val: v})
					}
				}
				a, z, next := p.span(k, from, cut[0], cut[1])
				if a0, z0, _ := p.span(k, 0, cut[0], cut[1]); (z > a || z0 > a0) && (a0 != a || z0 != z) {
					t.Fatalf("%d rows, k-mer %d: span [%d, %d) from entry %d, [%d, %d) from 0", rows, k, a, z, from, a0, z0)
				}
				from = next
				for e := a; e < z; e++ {
					got = append(got, spmat.Triple[int32]{Row: k, Col: spmat.Index(p.tgt[e]), Val: p.val[e]})
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%d rows, k-mer %d, targets [%d, %d): postings %v, block %v", rows, k, cut[0], cut[1], got, want)
				}
			}
		}
	}
}
