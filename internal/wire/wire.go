// Package wire is the one place bytes are laid out: the little-endian
// primitives every encoder in the tree appends with, the bounds-checked
// Reader every decoder walks with, the word-wise checksum every frame is
// sealed with, and the framed-section container every on-disk artifact
// (index files, wave checkpoints) is an instance of. Payloads cross rank
// boundaries and come back from disk, so decoding never trusts a length it
// has not compared against the bytes that remain.
package wire

import (
	"encoding/binary"
	"math"
)

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendU32 appends v as 4 little-endian bytes.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendF64 appends v's IEEE-754 bit pattern, so floats round-trip bitwise.
func AppendF64(dst []byte, v float64) []byte { return AppendU64(dst, math.Float64bits(v)) }

// AppendBytes appends b behind a u64 length prefix (Reader.Bytes reads it).
func AppendBytes(dst, b []byte) []byte { return append(AppendU64(dst, uint64(len(b))), b...) }

// AppendString is AppendBytes for a string (Reader.String reads it).
func AppendString(dst []byte, s string) []byte { return append(AppendU64(dst, uint64(len(s))), s...) }

// PutU64 writes v at the front of b, which must hold 8 bytes.
func PutU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// U64 and U32 read from the front of b without a length check (they panic
// on a short slice): for fixed-width value codecs whose caller has already
// bounds-checked the whole array. Anything else decodes through a Reader.
func U64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

func U32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// ChecksumInit starts a Checksum chain (the FNV-1a 64-bit offset basis).
const ChecksumInit uint64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// Checksum folds b into h eight bytes at a time (FNV-1a over little-endian
// words, a short tail zero-padded to one word): an order of magnitude
// cheaper than byte-wise FNV, and detection strength is ample for transport
// and disk corruption. Chaining — Checksum(Checksum(ChecksumInit, a), b) —
// covers discontiguous regions; the result equals one call over a‖b only
// when len(a) is a multiple of 8.
func Checksum(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		h = (h ^ U64(b)) * fnvPrime64
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = (h ^ U64(tail[:])) * fnvPrime64
	}
	return h
}
