package dmat

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/spmat"
	"repro/internal/testutil"
	"repro/internal/wire"
)

func buildBlock(t testing.TB, seed int64, rows, cols spmat.Index, nnz int) *spmat.DCSC[float64] {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b, err := spmat.FromTriples(rows, cols, randomTriples(rng, rows, cols, nnz), nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The block frame under the shared hardening contract — wire payloads
// arrive from a transport the fault layer can cut or corrupt mid-message.
// A codec without a positive Width never reaches the frame: every entry
// point refuses it.
func TestBlockCodecHardening(t *testing.T) {
	t.Run("fixed", func(t *testing.T) {
		for _, nnz := range []int{0, 120} {
			testutil.Hardening(t, EncodeBlock(buildBlock(t, 21, 40, 40, nnz), Float64Codec), func(buf []byte) ([]byte, error) {
				blk, err := DecodeBlock(buf, Float64Codec)
				if err != nil {
					return nil, err
				}
				return EncodeBlock(blk, Float64Codec), nil
			})
		}
	})
	t.Run("width", func(t *testing.T) {
		noWidth := Codec[float64]{Append: Float64Codec.Append, Decode: Float64Codec.Decode}
		err := mpi.NewCluster(1, mpi.DefaultCostModel()).Run(func(c *mpi.Comm) error {
			g, err := NewGrid(c)
			if err != nil {
				return err
			}
			blk := buildBlock(t, 21, 8, 8, 10)
			if _, err := NewFromTriples(g, 8, 8, nil, noWidth, nil); !errors.Is(err, errCodecWidth) {
				return fmt.Errorf("NewFromTriples: %v", err)
			}
			if _, _, err := bcastRows(g, g.RowComm, 0, blk, blk.NumRows, noWidth); !errors.Is(err, errCodecWidth) {
				return fmt.Errorf("bcastRows: %v", err)
			}
			if _, err := DecodeBlock(EncodeBlock(blk, Float64Codec), noWidth); !errors.Is(err, errCodecWidth) {
				return fmt.Errorf("DecodeBlock: %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzBlockCodecRoundTrip drives the block decoder with arbitrary bytes: it
// must never panic, and whenever it accepts a payload the re-encoding must
// be byte-identical (the decoder admits exactly the codec's image).
func FuzzBlockCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, blockHeaderLen))
	for _, nnz := range []int{0, 5, 60} {
		rng := rand.New(rand.NewSource(int64(nnz)))
		b, err := spmat.FromTriples(16, 16, randomTriples(rng, 16, 16, nnz), nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeBlock(b, Float64Codec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := DecodeBlock(data, Float64Codec)
		if err != nil {
			return // rejected cleanly: fine
		}
		re := EncodeBlock(blk, Float64Codec)
		if !reflect.DeepEqual(re, data) {
			t.Fatalf("accepted payload does not round-trip: %d bytes in, %d bytes out", len(data), len(re))
		}
	})
}

// The codec must round-trip blocks of every shape bit-for-bit (including
// empty ones), and the analytic wire size must match the real encoding.
func TestBlockCodecRoundTrip(t *testing.T) {
	cases := []*spmat.DCSC[float64]{
		spmat.Empty[float64](0, 0),
		spmat.Empty[float64](7, 9),
		buildBlock(t, 31, 1, 1, 1),
		buildBlock(t, 32, 64, 48, 500),
	}
	for i, b := range cases {
		enc := EncodeBlock(b, Float64Codec)
		if got, want := int64(len(enc)), BlockWireBytes(b, Float64Codec.Width); got != want {
			t.Errorf("case %d: encoded %d bytes, BlockWireBytes says %d", i, got, want)
		}
		dec, err := DecodeBlock(enc, Float64Codec)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		// Decoded slices may be empty-but-non-nil where the original had nil,
		// so compare through the (injective) encoding instead of DeepEqual.
		if !reflect.DeepEqual(EncodeBlock(dec, Float64Codec), enc) {
			t.Errorf("case %d: round-trip changed the block", i)
		}
		if dec.NumRows != b.NumRows || dec.NumCols != b.NumCols || dec.NNZ() != b.NNZ() {
			t.Errorf("case %d: shape/nnz drifted: %dx%d/%d vs %dx%d/%d", i,
				dec.NumRows, dec.NumCols, dec.NNZ(), b.NumRows, b.NumCols, b.NNZ())
		}
	}
}

// GatherTriples names the sending rank the same way: rank 1's codec writes
// one byte too few per value, so its part ends inside a record.
func TestGatherTriplesNamesTheSender(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	err := mpi.NewCluster(4, mpi.DefaultCostModel()).Run(func(c *mpi.Comm) error {
		g, err := NewGrid(c)
		if err != nil {
			return err
		}
		codec := Int32Codec
		if c.Rank() == 1 {
			codec.Append = func(dst []byte, v int32) []byte { return Int32Codec.Append(dst, v)[:len(dst)+3] }
		}
		// Every rank owns one nonzero: block-local (1, 2) of its block.
		rLo, _ := BlockRange(8, g.Q, g.MyRow)
		cLo, _ := BlockRange(8, g.Q, g.MyCol)
		m, err := NewFromTriples(g, 8, 8, []spmat.Triple[int32]{{Row: rLo + 1, Col: cLo + 2, Val: 3}}, Int32Codec, nil)
		if err != nil {
			return err
		}
		m.codec = codec
		_, err = m.GatherTriples()
		if c.Rank() == 0 && (err == nil || !strings.Contains(err.Error(), "triples from rank 1")) {
			return fmt.Errorf("GatherTriples: err %v, want one naming rank 1", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A row-prefix image (encodeRows, what a bounded SUMMA stage broadcasts) is
// the image of the block pruned to those rows, for every cut: below every
// row, on a row, past the last one.
func TestEncodeRowsIsPrunedBlock(t *testing.T) {
	b := buildBlock(t, 41, 30, 25, 160)
	for hi := spmat.Index(0); hi <= b.NumRows+1; hi++ {
		want := b.Prune(func(r, _ spmat.Index, _ float64) bool { return r < hi })
		if got := encodeRows(b, hi, Float64Codec); !reflect.DeepEqual(got, EncodeBlock(want, Float64Codec)) {
			t.Fatalf("rows [0, %d): image differs from the pruned block's", hi)
		}
	}
}

// The decoder admits only the image of a valid DCSC. A payload whose
// checksum holds but whose arrays break the invariants — a faulty sender —
// is rejected before the multiply or the encoder relies on them.
func TestDecodeBlockRejectsBrokenDCSC(t *testing.T) {
	raw := func(jc, cp, ir []int64) []byte {
		buf := make([]byte, 0, blockHeaderLen)
		for _, v := range []int{4, 4, len(jc), len(ir), 0} {
			buf = wire.AppendU64(buf, uint64(v))
		}
		for _, a := range [][]int64{jc, cp, ir} {
			for _, v := range a {
				buf = wire.AppendU64(buf, uint64(v))
			}
		}
		for range ir {
			buf = Float64Codec.Append(buf, 1.5)
		}
		wire.PutU64(buf[32:], blockChecksum(buf))
		return buf
	}
	valid := raw([]int64{1, 3}, []int64{0, 2, 3}, []int64{0, 2, 1})
	blk, err := DecodeBlock(valid, Float64Codec)
	if err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}
	if !reflect.DeepEqual(EncodeBlock(blk, Float64Codec), valid) {
		t.Fatal("valid block does not round-trip")
	}
	for name, buf := range map[string][]byte{
		"empty column":         raw([]int64{1, 3}, []int64{0, 0, 3}, []int64{0, 2, 1}),
		"columns out of order": raw([]int64{3, 1}, []int64{0, 2, 3}, []int64{0, 2, 1}),
		"repeated column":      raw([]int64{1, 1}, []int64{0, 2, 3}, []int64{0, 2, 1}),
		"column out of range":  raw([]int64{1, 4}, []int64{0, 2, 3}, []int64{0, 2, 1}),
		"negative column":      raw([]int64{-1, 3}, []int64{0, 2, 3}, []int64{0, 2, 1}),
		"pointers descending":  raw([]int64{1, 3}, []int64{0, 4, 3}, []int64{0, 2, 1}),
		"rows out of order":    raw([]int64{1, 3}, []int64{0, 2, 3}, []int64{2, 0, 1}),
		"repeated row":         raw([]int64{1, 3}, []int64{0, 2, 3}, []int64{2, 2, 1}),
		"row out of range":     raw([]int64{1, 3}, []int64{0, 2, 3}, []int64{0, 4, 1}),
		"negative row":         raw([]int64{1, 3}, []int64{0, 2, 3}, []int64{-1, 2, 1}),
		"rows without columns": raw(nil, []int64{0}, []int64{0}),
	} {
		if _, err := DecodeBlock(buf, Float64Codec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
