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
			if _, err := NewFromLocal(g, 8, 8, blk, noWidth); !errors.Is(err, errCodecWidth) {
				return fmt.Errorf("NewFromLocal: %v", err)
			}
			if _, err := BcastBlock(g, g.RowComm, 0, blk, noWidth); !errors.Is(err, errCodecWidth) {
				return fmt.Errorf("BcastBlock: %v", err)
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

// The triple-record decoder as redistribution reaches it — alltoall hands it
// a peer's part: a part that stops inside a record — word-aligned or not —
// is an error naming the sending rank, never a hang. Rank 1's encoder is
// stubbed to put every prefix of three records on the wire to rank 0.
func TestDecodeTriplesRejectsPartialRecords(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	var enc []byte
	want := []spmat.Triple[int32]{{Row: 1, Col: 2, Val: -3}, {Row: 4, Col: 5, Val: 6}, {Row: 7, Col: 8, Val: 9}}
	for _, tr := range want {
		enc = appendTriple(enc, tr.Row, tr.Col, tr.Val, Int32Codec)
	}
	for cut := 0; cut <= len(enc); cut++ {
		err := mpi.NewCluster(4, mpi.DefaultCostModel()).Run(func(c *mpi.Comm) error {
			g, err := NewGrid(c)
			if err != nil {
				return err
			}
			g.Backend = BackendCodec
			parts := make([][]spmat.Triple[int32], c.Size())
			if c.Rank() == 1 {
				parts[0] = want
			}
			got, err := alltoall(g, parts,
				func(p []spmat.Triple[int32]) int64 { return int64(min(len(p), cut)) },
				func([]spmat.Triple[int32]) []byte { return enc[:cut:cut] },
				func(buf []byte) ([]spmat.Triple[int32], error) { return decodeTriples(nil, buf, Int32Codec) })
			if c.Rank() != 0 {
				return err
			}
			if (err == nil) != (cut%20 == 0) || (err != nil && !strings.Contains(err.Error(), "rank 1")) {
				return fmt.Errorf("err %v", err)
			}
			if err == nil && !reflect.DeepEqual(got[1], want[:cut/20]) && cut > 0 {
				return fmt.Errorf("decoded %v", got[1])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("triples cut at %d bytes: %v", cut, err)
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
		rLo, rHi := BlockRange(8, g.Q, g.MyRow)
		cLo, cHi := BlockRange(8, g.Q, g.MyCol)
		local, err := spmat.FromTriples(rHi-rLo, cHi-cLo, []spmat.Triple[int32]{{Row: 1, Col: 2, Val: 3}}, nil)
		if err != nil {
			return err
		}
		m, err := NewFromLocal(g, 8, 8, local, codec)
		if err != nil {
			return err
		}
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
