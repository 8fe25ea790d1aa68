package dmat

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mpi"
	"repro/internal/spmat"
)

// runBackend executes the same distributed program under one transport
// backend and returns rank 0's gathered triples plus the cluster's clock
// totals.
type backendRun struct {
	triples []spmat.Triple[float64]
	maxTime float64
	total   int64
	retry   int64
	peak    int64
}

func runBackend(t *testing.T, p int, backend Backend, plan *mpi.FaultPlan,
	prog func(g *Grid) ([]spmat.Triple[float64], error)) backendRun {
	t.Helper()
	var out backendRun
	cl := mpi.NewCluster(p, mpi.DefaultCostModel())
	if plan != nil {
		cl.ArmFaults(*plan)
	}
	err := cl.Run(func(c *mpi.Comm) error {
		g, err := NewGrid(c)
		if err != nil {
			return err
		}
		g.Backend = backend
		ts, err := prog(g)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out.triples = ts
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := cl.Summary()
	out.maxTime, out.total, out.retry, out.peak = sum.Time, sum.BytesOnWire, sum.RetryBytes, sum.PeakBytes
	return out
}

// TestTransportBackendsEquivalent is the dmat-level differential test: the
// shared-memory and codec transports must produce bitwise-identical results
// AND bitwise-identical virtual-clock accounting — MaxTime, TotalBytes,
// PeakBytes — across grid sizes, thread counts and panel counts, because
// the shared path charges the analytically computed size of the encoding
// it never performs.
func TestTransportBackendsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := spmat.Index(90)
	aT := randomTriples(rng, n, n, 1500)
	bT := randomTriples(rng, n, n, 1300)
	sr := spmat.Semiring[float64, float64, float64]{
		Multiply: func(_, _ spmat.Index, x, y float64) float64 { return x * y },
		Add:      func(x, y float64) float64 { return x + y },
	}
	for _, p := range []int{1, 4, 9} {
		for _, blocks := range []int{1, 3} {
			for _, threads := range []int{1, 4} {
				prog := func(g *Grid) ([]spmat.Triple[float64], error) {
					a, err := NewFromTriples(g, n, n, scatter(aT, g.Comm.Rank(), p), Float64Codec, nil)
					if err != nil {
						return nil, err
					}
					b, err := NewFromTriples(g, n, n, scatter(bT, g.Comm.Rank(), p), Float64Codec, nil)
					if err != nil {
						return nil, err
					}
					opts := DefaultSpGEMMOpts()
					opts.Threads = threads
					bt, err := b.Transpose()
					if err != nil {
						return nil, err
					}
					var ts []spmat.Triple[float64]
					err = panelLoop(a, bt, sr, opts, blocks, func(_ int, _, _ spmat.Index, pm *Mat[float64]) error {
						part, err := pm.GatherTriples()
						ts = append(ts, part...)
						pm.Release()
						return err
					})
					if err != nil {
						return nil, err
					}
					sortTriples(ts)
					return ts, nil
				}
				shared := runBackend(t, p, BackendShared, nil, prog)
				codec := runBackend(t, p, BackendCodec, nil, prog)
				// Third way: a zero fault plan armed on the codec backend must
				// be a provable identity — same product, same clocks, to the bit.
				armed := runBackend(t, p, BackendCodec, &mpi.FaultPlan{Seed: 99}, prog)
				name := fmt.Sprintf("p=%d blocks=%d threads=%d", p, blocks, threads)
				if !reflect.DeepEqual(shared.triples, codec.triples) {
					t.Errorf("%s: backends disagree on the product", name)
				}
				if shared.maxTime != codec.maxTime {
					t.Errorf("%s: MaxTime %g (shared) vs %g (codec)", name, shared.maxTime, codec.maxTime)
				}
				if shared.total != codec.total {
					t.Errorf("%s: TotalBytes %d (shared) vs %d (codec)", name, shared.total, codec.total)
				}
				if shared.peak != codec.peak {
					t.Errorf("%s: PeakBytes %d (shared) vs %d (codec)", name, shared.peak, codec.peak)
				}
				if !reflect.DeepEqual(armed.triples, codec.triples) {
					t.Errorf("%s: zero fault plan changed the product", name)
				}
				if armed.maxTime != codec.maxTime || armed.total != codec.total ||
					armed.peak != codec.peak || armed.retry != 0 {
					t.Errorf("%s: zero fault plan disturbed the clocks: %+v vs clean {%g %d %d}",
						name, armed, codec.maxTime, codec.total, codec.peak)
				}
				// And under live faults the multiply must still converge to the
				// same product, with recovery traffic segregated so that
				// TotalBytes - RetryBytes equals the fault-free bill.
				if p > 1 {
					faulty := runBackend(t, p, BackendCodec,
						&mpi.FaultPlan{Seed: 5, DropProb: 0.1, CorruptProb: 0.05, DelayProb: 0.1}, prog)
					if !reflect.DeepEqual(faulty.triples, codec.triples) {
						t.Errorf("%s: faults changed the product", name)
					}
					if got := faulty.total - faulty.retry; got != codec.total {
						t.Errorf("%s: TotalBytes-RetryBytes = %d, want %d (retry %d)",
							name, got, codec.total, faulty.retry)
					}
				}
			}
		}
	}
}

// TestSharedBlocksNotMutated is the aliasing guard: with the shared
// backend, SUMMA hands every receiver a reference to the root's resident
// block. A receiver scribbling on it would corrupt another rank's matrix —
// so after a round of multiplies, every rank's local block must be exactly
// what it deposited.
func TestSharedBlocksNotMutated(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := spmat.Index(80)
	aT := randomTriples(rng, n, n, 1200)
	bT := randomTriples(rng, n, n, 1100)
	sr := spmat.Semiring[float64, float64, float64]{
		Multiply: func(_, _ spmat.Index, x, y float64) float64 { return x * y },
		Add:      func(x, y float64) float64 { return x + y },
	}
	snapshot := func(m *spmat.DCSC[float64]) *spmat.DCSC[float64] {
		cp := &spmat.DCSC[float64]{NumRows: m.NumRows, NumCols: m.NumCols}
		cp.JC = append([]spmat.Index(nil), m.JC...)
		cp.CP = append([]int(nil), m.CP...)
		cp.IR = append([]spmat.Index(nil), m.IR...)
		cp.Vals = append([]float64(nil), m.Vals...)
		return cp
	}
	runGrid(t, 9, func(g *Grid) error {
		a, err := NewFromTriples(g, n, n, scatter(aT, g.Comm.Rank(), 9), Float64Codec, nil)
		if err != nil {
			return err
		}
		b, err := NewFromTriples(g, n, n, scatter(bT, g.Comm.Rank(), 9), Float64Codec, nil)
		if err != nil {
			return err
		}
		aWas, bWas := snapshot(a.Local), snapshot(b.Local)
		if _, err := SpGEMM(a, b, sr, Float64Codec, DefaultSpGEMMOpts()); err != nil {
			return err
		}
		if err := panelLoop(a, b, sr, DefaultSpGEMMOpts(), 3,
			func(int, spmat.Index, spmat.Index, *Mat[float64]) error { return nil }); err != nil {
			return err
		}
		if !reflect.DeepEqual(aWas, a.Local) {
			return fmt.Errorf("rank %d: shared A block was mutated", g.Comm.Rank())
		}
		if !reflect.DeepEqual(bWas, b.Local) {
			return fmt.Errorf("rank %d: shared B block was mutated", g.Comm.Rank())
		}
		return nil
	})
}

// TestBlockCodecAllocationStable mirrors spmat's
// TestHashRangeAllocationStable for the wire codec: encode allocates one
// exact-capacity buffer and decode one struct plus four arrays, so the
// allocation count must not scale with block size.
func TestBlockCodecAllocationStable(t *testing.T) {
	build := func(nnz int) *spmat.DCSC[float64] {
		rng := rand.New(rand.NewSource(int64(nnz)))
		b, err := spmat.FromTriples(400, 400, randomTriples(rng, 400, 400, nnz), nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	small, large := build(200), build(4000)
	allocs := func(b *spmat.DCSC[float64]) (enc, dec float64) {
		enc = testing.AllocsPerRun(10, func() {
			_ = EncodeBlock(b, Float64Codec)
		})
		payload := EncodeBlock(b, Float64Codec)
		dec = testing.AllocsPerRun(10, func() {
			if _, err := DecodeBlock(payload, Float64Codec); err != nil {
				t.Fatal(err)
			}
		})
		return enc, dec
	}
	encS, decS := allocs(small)
	encL, decL := allocs(large)
	if encL > encS+1 {
		t.Errorf("encode allocations scale with size: %.0f (small) vs %.0f (large)", encS, encL)
	}
	if decL > decS+1 {
		t.Errorf("decode allocations scale with size: %.0f (small) vs %.0f (large)", decS, decL)
	}
	// Wire-size arithmetic must agree with the actual encoding.
	for _, b := range []*spmat.DCSC[float64]{small, large, spmat.Empty[float64](10, 10)} {
		if got, want := int64(len(EncodeBlock(b, Float64Codec))), BlockWireBytes(b, Float64Codec.Width); got != want {
			t.Errorf("encoded %d bytes, BlockWireBytes says %d", got, want)
		}
	}
}
