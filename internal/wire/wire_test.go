package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	buf := AppendU64(nil, 0xfedcba9876543210)
	buf = AppendU32(buf, 0xdeadbeef)
	if U32(buf[8:]) != 0xdeadbeef {
		t.Errorf("U32 = %#x", U32(buf[8:]))
	}
	buf = buf[:8]
	buf = AppendF64(buf, math.Inf(-1))
	buf = AppendString(buf, "name")
	buf = AppendBytes(buf, nil)
	buf = AppendU64(buf, 3)
	for _, v := range []uint64{7, 8, 9} {
		buf = AppendU64(buf, v)
	}
	buf = append(buf, "tail"...)

	r := NewReader(buf)
	if v := r.U64(); v != 0xfedcba9876543210 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.F64(); !math.IsInf(v, -1) {
		t.Errorf("F64 = %v", v)
	}
	if s := r.String(); s != "name" {
		t.Errorf("String = %q", s)
	}
	if b := r.Bytes(); len(b) != 0 {
		t.Errorf("empty Bytes = %q", b)
	}
	xs := make([]int, r.Count(8))
	U64s(r, xs)
	if len(xs) != 3 || xs[0] != 7 || xs[2] != 9 {
		t.Errorf("U64s = %v", xs)
	}
	if p := r.Peek(); string(p) != "tail" || r.Len() != 4 {
		t.Errorf("Peek = %q with %d left", p, r.Len())
	}
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "4 trailing bytes at offset") {
		t.Errorf("Done with unread bytes: %v", err)
	}
	whole := NewReader([]byte("tail"))
	if b := whole.Take(4); string(b) != "tail" || whole.Done() != nil {
		t.Errorf("Take of everything: %q, Done %v", b, whole.Done())
	}
}

// The first failure sticks, names its offset, and every later read returns
// zero values without moving.
func TestReaderStickyError(t *testing.T) {
	r := NewReader(AppendU64(AppendU64(nil, 1), 2)[:12])
	if v := r.U64(); v != 1 || r.Err() != nil {
		t.Fatalf("first read: %d, %v", v, r.Err())
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("truncated read returned %d", v)
	}
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "offset 8") {
		t.Fatalf("truncated read error %v does not name offset 8", first)
	}
	if r.U64() != 0 || r.F64() != 0 || r.String() != "" || r.Bytes() != nil || r.Take(1) != nil ||
		r.Peek() != nil || r.Count(1) != 0 {
		t.Error("read after failure returned a non-zero value")
	}
	xs := []int64{5}
	if U64s(r, xs); xs[0] != 5 {
		t.Error("U64s after failure wrote its destination")
	}
	if r.Err() != first || r.Done() != first {
		t.Errorf("error replaced: %v, then %v", first, r.Err())
	}
}

// Lengths and counts are compared as uint64: a forged 2⁶³ (negative as an
// int) or 2⁶⁴-1 must fail the bounds check, not pass it and slice.
func TestReaderLengthOverflow(t *testing.T) {
	for _, n := range []uint64{1 << 63, 1<<63 + 5, math.MaxUint64, 1 << 32, 5} {
		payload := append(AppendU64(nil, n), "abcd"...)
		r := NewReader(payload)
		if b := r.Bytes(); b != nil || r.Err() == nil {
			t.Errorf("Bytes with length %#x over 4 bytes: %q, %v", n, b, r.Err())
		}
		r = NewReader(payload)
		if c := r.Count(1); c != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "offset 0") {
			t.Errorf("Count %#x over 4 bytes: %d, %v", n, c, r.Err())
		}
		if b := NewReader([]byte("abcd")).Take(n); b != nil {
			t.Errorf("Take(%#x) over 4 bytes returned %q", n, b)
		}
	}
	// Count divides by the record size: 2 records of 3 bytes do not fit in 4.
	r := NewReader(append(AppendU64(nil, 2), "abcd"...))
	if r.Count(3); r.Err() == nil {
		t.Error("Count(3) admitted 2 records in 4 bytes")
	}
}

// A record loop ends on the first failed read: a buffer that stops inside a
// record yields the whole records before it and an error, at every length —
// a failed read does not advance, so a loop that outlived it would never
// return. (A hang shows as the test binary's timeout.)
func TestRecordLoopsEndOnTruncation(t *testing.T) {
	var enc []byte
	for i := uint64(1); i <= 3; i++ {
		enc = AppendU64(AppendU64(enc, i), 10*i)
	}
	for cut := 0; cut <= len(enc); cut++ {
		var got []uint64
		err := Pairs(enc[:cut:cut], func(k, v uint64) { got = append(got, k, v) })
		if (err == nil) != (cut%16 == 0) {
			t.Errorf("Pairs over %d bytes: err %v", cut, err)
		}
		if len(got) != 2*(cut/16) || (len(got) > 0 && got[len(got)-1] != 10*uint64(cut/16)) {
			t.Errorf("Pairs over %d bytes delivered %v", cut, got)
		}
		r, reads := NewReader(enc[:cut:cut]), 0
		for r.More() {
			r.U64()
			reads++
		}
		if reads != (cut+7)/8 || (r.Err() == nil) != (cut%8 == 0) {
			t.Errorf("More loop over %d bytes: %d reads, err %v", cut, reads, r.Err())
		}
	}
}

// Take clips capacity, so appending to a returned slice cannot overwrite
// the bytes that follow it in the buffer.
func TestReaderTakeClipsCapacity(t *testing.T) {
	buf := []byte("headtail")
	r := NewReader(buf)
	_ = append(r.Take(4), 'X')
	if string(buf) != "headtail" {
		t.Fatalf("append through Take clobbered the buffer: %q", buf)
	}
}

// Checksum is pinned: index files, block frames, checkpoints and both
// config fingerprints embed its values, so the function may never change.
// The goldens are the parent commit's index.checksum over the same inputs.
func TestChecksumPinned(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xcbf29ce484222325},
		{"a", 0xaf63dc4c8601ec8c},
		{"12345678", 0x49f2564e2d0004fc},
		{"PASTISIX and a tail", 0xcec4e420a76cbeb4},
	} {
		if got := Checksum(ChecksumInit, []byte(c.in)); got != c.want {
			t.Errorf("Checksum(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
	// Chaining at a word boundary equals one pass; the tail is zero-padded.
	a, b := []byte("abcdefgh"), []byte("ijk")
	if Checksum(Checksum(ChecksumInit, a), b) != Checksum(ChecksumInit, bytes.Join([][]byte{a, b}, nil)) {
		t.Error("chained checksum differs from one pass at a word boundary")
	}
	if Checksum(ChecksumInit, b) != Checksum(ChecksumInit, append(bytes.Clone(b), 0, 0, 0, 0, 0)) {
		t.Error("short tail is not zero-padded to a word")
	}
}
