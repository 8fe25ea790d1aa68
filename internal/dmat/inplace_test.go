package dmat

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/spmat"
)

// kmerBlock is a block of A's shape: rows sequences of perRow k-mers drawn
// from a k-mer space so wide that a column holds about one nonzero, valued
// by position.
func kmerBlock(tb testing.TB, seed int64, rows spmat.Index, perRow int) *spmat.DCSC[int32] {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	const kmers = 1 << 30
	ts := make([]spmat.Triple[int32], 0, int(rows)*perRow)
	for r := spmat.Index(0); r < rows; r++ {
		for pos := range perRow {
			ts = append(ts, spmat.Triple[int32]{Row: r, Col: rng.Int63n(kmers), Val: int32(pos)})
		}
	}
	b, err := spmat.FromTriples(rows, kmers, ts, func(x, _ int32) int32 { return x })
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// aligned returns a copy of b that starts on an 8-byte boundary, as a tcp
// frame's block and every encoder output do.
func aligned(b []byte) []byte {
	out := asBytes(make([]uint64, (len(b)+7)/8))[:len(b):len(b)]
	copy(out, b)
	return out
}

// within reports whether s lies inside buf's memory.
func within[E any](s []E, buf []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p+uintptr(len(asBytes(s))) <= lo+uintptr(len(buf))
}

// bigEndianInt32 writes a value as bytes that are not its memory on a
// little-endian host: its blocks keep the per-value paths.
var bigEndianInt32 = Codec[int32]{
	Append: func(dst []byte, v int32) []byte { return binary.BigEndian.AppendUint32(dst, uint32(v)) },
	Decode: func(src []byte) (int32, int) { return int32(binary.BigEndian.Uint32(src)), 4 },
	Width:  4,
}

// An aligned frame decodes in place: JC, CP, IR and the values of a codec
// that writes their memory are views of the buffer, and the decode
// allocates the block's header alone. The same image one byte off takes
// the copy path — which is how the path other byte orders and index
// sections take stays tested here — and decodes to the same block, as does
// an aligned image whose codec moves bytes (values copied, arrays viewed).
func TestDecodeBlockInPlace(t *testing.T) {
	b := kmerBlock(t, 1, 200, 40)
	if !rawValues(Int32Codec, nil) || !rawValues(Float64Codec, nil) || rawValues(bigEndianInt32, nil) {
		t.Fatal("rawValues misjudges a codec")
	}
	enc := aligned(EncodeBlock(b, Int32Codec))
	dec, err := DecodeBlock(enc, Int32Codec)
	if err != nil {
		t.Fatal(err)
	}
	if nativeWords && !(within(dec.JC, enc) && within(dec.CP, enc) && within(dec.IR, enc) && within(dec.Vals, enc)) {
		t.Fatal("aligned int32 frame was copied, not viewed")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBlock(enc, Int32Codec); err != nil {
			t.Fatal(err)
		}
	}); nativeWords && allocs > 1 {
		t.Fatalf("in-place decode made %.0f allocations, want at most 1", allocs)
	}

	off := make([]byte, len(enc)+1)[1:]
	copy(off, enc)
	cp, err := DecodeBlock(off, Int32Codec)
	if err != nil {
		t.Fatal(err)
	}
	if within(cp.JC, off) || within(cp.CP, off) || within(cp.IR, off) || within(cp.Vals, off) {
		t.Fatal("misaligned frame was viewed, not copied")
	}
	same := func(x, y int32) bool { return x == y }
	if !spmat.Equal(dec, cp, same) || !spmat.Equal(dec, b, same) {
		t.Fatal("copy path and in-place path decode different blocks")
	}

	be := aligned(EncodeBlock(b, bigEndianInt32))
	bdec, err := DecodeBlock(be, bigEndianInt32)
	if err != nil {
		t.Fatal(err)
	}
	if within(bdec.Vals, be) || (nativeWords && !within(bdec.IR, be)) {
		t.Fatal("a byte-moving codec's values were viewed, or its arrays copied")
	}
	if !spmat.Equal(bdec, b, same) || !bytes.Equal(EncodeBlock(bdec, bigEndianInt32), be) {
		t.Fatal("byte-moving codec does not round-trip")
	}

	// Values are copied as memory only when Append writes memory too.
	bumped := Int32Codec
	bumped.Append = func(dst []byte, v int32) []byte { return Int32Codec.Append(dst, v+1) }
	up, err := DecodeBlock(EncodeBlock(b, bumped), Int32Codec)
	if err != nil {
		t.Fatal(err)
	}
	if !spmat.Equal(up, b, func(x, y int32) bool { return x == y+1 }) {
		t.Fatal("the encoder copied values whose codec's Append does not write their memory")
	}
}

// A block decoded in place is read-only: the operations a SUMMA stage, a
// transpose, a stage merge, a re-broadcast and an index write run over a
// received block leave its frame byte for byte as it arrived.
func TestReceivedBlocksReadOnly(t *testing.T) {
	b := kmerBlock(t, 2, 300, 30)
	enc := aligned(EncodeBlock(b, Int32Codec))
	was := bytes.Clone(enc)
	dec, err := DecodeBlock(enc, Int32Codec)
	if err != nil {
		t.Fatal(err)
	}
	add := func(x, y int32) int32 { return x + y }
	ops := []func() error{
		func() error {
			// A stage's bounded product of the received block with a
			// transposed one, as the symmetric sweep forms it.
			_, _, err := spmat.SpGEMM(dec, dec.Transpose(), spmat.Counting[int32, int32](),
				spmat.SpGEMMOpts{Threads: 2, RowMax: func(j spmat.Index) spmat.Index { return j - 1 }})
			return err
		},
		func() error {
			_, _, err := spmat.SpGEMM(dec.Transpose(), dec, spmat.Counting[int32, int32](), spmat.SpGEMMOpts{})
			return err
		},
		func() error {
			_, err := spmat.MergeAdd([]*spmat.DCSC[int32]{dec, dec.ColRange(0, dec.NumCols/2)}, add)
			return err
		},
		func() error {
			if !bytes.Equal(EncodeBlock(dec, Int32Codec), was) {
				return fmt.Errorf("re-encoding differs")
			}
			_ = encodeRows(dec.ColRange(dec.NumCols/3, dec.NumCols), dec.NumRows/2, Int32Codec)
			return nil
		},
	}
	for i, op := range ops {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if !bytes.Equal(enc, was) {
			t.Fatalf("op %d wrote into the received frame", i)
		}
	}
}

// BenchmarkBlockCodec times the block frame on a k-mer block (1000 rows, a
// nonzero per column): a whole encode, the row-prefix encodes of a bounded
// SUMMA stage at a quarter and half of the rows, and an in-place decode.
// Bytes are the image's, so MB/s compares a prefix encode with a whole one
// per byte written.
func BenchmarkBlockCodec(b *testing.B) {
	blk := kmerBlock(b, 3, 1000, 150)
	for _, c := range []struct {
		name string
		hi   spmat.Index
	}{{"encode/whole", blk.NumRows}, {"encode/rows-quarter", blk.NumRows / 4}, {"encode/rows-half", blk.NumRows / 2}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(encodeRows(blk, c.hi, Int32Codec))))
			for b.Loop() {
				encodeRows(blk, c.hi, Int32Codec)
			}
		})
	}
	b.Run("decode/aligned", func(b *testing.B) {
		enc := aligned(EncodeBlock(blk, Int32Codec))
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for b.Loop() {
			if _, err := DecodeBlock(enc, Int32Codec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
