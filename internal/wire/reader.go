package wire

import (
	"fmt"
	"math"
)

// Reader walks an encoded buffer with bounds checking. The first failed read
// sticks: it records an error naming the offset, and that read and every
// later one return zero values, so a decoder reads a whole record and checks
// Err (or Done) once instead of after every field. Lengths are compared as
// uint64 against the bytes that remain — a forged length of 2⁶³ cannot turn
// negative and slip past the check.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// fail records the first error: a read of n bytes that did not fit.
func (r *Reader) fail(n uint64) {
	if r.err == nil {
		r.err = fmt.Errorf("%d bytes at offset %d overrun the %d that remain", n, r.off, len(r.buf)-r.off)
	}
}

// Take returns the next n bytes, aliasing the buffer with capacity clipped
// so an append by the caller cannot reach the bytes behind them.
func (r *Reader) Take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.buf)-r.off) {
		r.fail(n)
		return nil
	}
	end := r.off + int(n)
	b := r.buf[r.off:end:end]
	r.off = end
	return b
}

// U64 reads a little-endian u64.
func (r *Reader) U64() uint64 {
	if r.err != nil || len(r.buf)-r.off < 8 {
		r.fail(8)
		return 0
	}
	v := U64(r.buf[r.off:])
	r.off += 8
	return v
}

// F64 reads a float64 stored as its bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a u64 length prefix and that many bytes (AppendBytes' inverse).
func (r *Reader) Bytes() []byte { return r.Take(r.U64()) }

// String is Bytes copied into a string (AppendString's inverse).
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads a u64 element count and rejects one whose elements, at rec
// bytes or more each, could not fit in the bytes that remain — so a forged
// count can neither size an allocation nor spin a loop.
func (r *Reader) Count(rec int) int {
	n := r.U64()
	if r.err == nil && n > uint64(r.Len()/rec) {
		r.err = fmt.Errorf("count %d at offset %d needs more than the %d bytes that remain", n, r.off-8, r.Len())
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// U64s fills dst from len(dst) consecutive u64s under one bounds check for
// the whole array, which keeps the block decoder's loops free of per-element
// checks.
func U64s[T ~int | ~int64 | ~uint64](r *Reader, dst []T) {
	b := r.Take(8 * uint64(len(dst)))
	if r.err != nil {
		return
	}
	for i := range dst {
		dst[i] = T(U64(b[8*i:]))
	}
}

// Peek returns every byte not yet read without consuming any (nil after a
// failed read): a trailing payload is taken whole this way, and a
// variable-width value is decoded from it and then consumed with Take.
func (r *Reader) Peek() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf[r.off:]
}

// Len is the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// More is the condition of a record loop: bytes remain and no read has
// failed. A failed read does not advance, so a loop on Len alone would spin
// forever over a buffer that ends inside a record.
func (r *Reader) More() bool { return r.err == nil && r.off < len(r.buf) }

// Err is the first failed read, or nil.
func (r *Reader) Err() error { return r.err }

// Done ends a decode: it returns the first failed read, or an error if bytes
// remain — a buffer longer than its contents is not the encoder's image.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("%d trailing bytes at offset %d", len(r.buf)-r.off, r.off)
	}
	return r.err
}
