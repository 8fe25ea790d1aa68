package testutil

import (
	"bytes"
	"testing"
)

// Hardening holds a decoder to the contract every checksum-framed format in
// the tree makes about its own image. enc is a valid encoding; decode parses
// a buffer and returns the re-encoding of what it accepted. The harness
// requires that
//
//   - enc itself is accepted and re-encodes byte-identically (and so does
//     anything else decode accepts along the way);
//   - every proper prefix of enc is rejected;
//   - every single-bit flip is rejected (every bit up to 4 KiB; above that,
//     one bit of each of ~4096 evenly spaced bytes);
//   - enc followed by one or by eight stray bytes is rejected;
//
// always by an error, never by a panic.
func Hardening(t *testing.T, enc []byte, decode func(buf []byte) (reencoded []byte, err error)) {
	t.Helper()
	// try reports whether decode accepted buf, failing the test if what it
	// accepted does not re-encode to buf.
	try := func(what string, buf []byte) bool {
		re, err := decode(buf)
		if err == nil && !bytes.Equal(re, buf) {
			t.Fatalf("%s: accepted %d bytes that re-encode to %d different bytes", what, len(buf), len(re))
		}
		return err == nil
	}
	if !try("valid encoding", enc) {
		t.Fatal("valid encoding rejected")
	}
	for cut := 0; cut < len(enc); cut++ {
		if try("truncation", enc[:cut:cut]) {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(enc))
		}
	}
	buf := make([]byte, len(enc))
	stride, bits := 1, 8
	if len(enc) > 4096 {
		stride, bits = len(enc)/4096, 1
	}
	for i := 0; i < len(enc); i += stride {
		for b := 0; b < bits; b++ {
			bit := (i/stride + b) % 8
			copy(buf, enc)
			buf[i] ^= 1 << bit
			if try("bit flip", buf) {
				t.Fatalf("flip of bit %d in byte %d of %d accepted", bit, i, len(enc))
			}
		}
	}
	for _, extra := range []int{1, 8} {
		if try("trailing bytes", append(bytes.Clone(enc), make([]byte, extra)...)) {
			t.Fatalf("%d trailing bytes accepted", extra)
		}
	}
}
