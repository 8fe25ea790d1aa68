package kmer

import (
	"testing"
	"testing/quick"

	"repro/internal/alphabet"
)

// Paper example (Section V-B): RCQ = 1*24^2 + 4*24 + 5 = 677.
func TestPaperExampleID(t *testing.T) {
	codes, err := alphabet.EncodeSeq([]byte("RCQ"))
	if err != nil {
		t.Fatal(err)
	}
	if got := Encode(codes); got != 677 {
		t.Errorf("Encode(RCQ) = %d, want 677", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, s := range []string{"AAA", "RCQ", "WYV", "MKVLAW", "******"} {
		codes, err := alphabet.EncodeSeq([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		id := Encode(codes)
		if got := String(id, len(s)); got != s {
			t.Errorf("round trip %q -> %d -> %q", s, id, got)
		}
	}
}

func TestSpaceSize(t *testing.T) {
	if SpaceSize(1) != 24 {
		t.Errorf("SpaceSize(1) = %d", SpaceSize(1))
	}
	if SpaceSize(3) != 24*24*24 {
		t.Errorf("SpaceSize(3) = %d", SpaceSize(3))
	}
	// 24^6 = 191M. (The paper quotes "244M" columns for k=6, which is 25^6;
	// its own formula |Σ|^k with |Σ|=24 gives this value.)
	if SpaceSize(6) != 191102976 {
		t.Errorf("SpaceSize(6) = %d, want 191102976", SpaceSize(6))
	}
}

func TestSetBaseAndBaseAt(t *testing.T) {
	codes, _ := alphabet.EncodeSeq([]byte("ARN"))
	id := Encode(codes)
	// Replace position 1 (R) with C.
	id2 := SetBase(id, 3, 1, alphabet.Encode('C'))
	if got := String(id2, 3); got != "ACN" {
		t.Errorf("SetBase = %q, want ACN", got)
	}
	if got := BaseAt(id2, 3, 1); got != alphabet.Encode('C') {
		t.Errorf("BaseAt = %c", alphabet.Decode(got))
	}
	// Original unchanged positions.
	if BaseAt(id2, 3, 0) != alphabet.Encode('A') || BaseAt(id2, 3, 2) != alphabet.Encode('N') {
		t.Error("SetBase disturbed other positions")
	}
}

func TestExtractBasic(t *testing.T) {
	kmers, err := Extract([]byte("ARNDC"), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ARN", "RND", "NDC"}
	if len(kmers) != len(want) {
		t.Fatalf("got %d k-mers, want %d", len(kmers), len(want))
	}
	for i, km := range kmers {
		if got := String(km.ID, 3); got != want[i] {
			t.Errorf("kmer %d = %q, want %q", i, got, want[i])
		}
		if km.Pos != i {
			t.Errorf("kmer %d pos = %d, want %d", i, km.Pos, i)
		}
	}
}

func TestExtractCount(t *testing.T) {
	// L-k+1 k-mers for length-L sequences (paper Section IV-C).
	seq := make([]byte, 100)
	for i := range seq {
		seq[i] = alphabet.Letters[i%20]
	}
	kmers, err := Extract(seq, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(kmers) != 95 {
		t.Errorf("got %d k-mers, want 95", len(kmers))
	}
}

func TestExtractShortSequence(t *testing.T) {
	kmers, err := Extract([]byte("AR"), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(kmers) != 0 {
		t.Errorf("short sequence should yield no k-mers, got %d", len(kmers))
	}
}

func TestExtractSkipAmbiguous(t *testing.T) {
	kmers, err := Extract([]byte("ARXDC"), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	// ARX, RXD, XDC all contain X; none survive.
	if len(kmers) != 0 {
		t.Errorf("ambiguous k-mers should be skipped, got %d", len(kmers))
	}
	kmers, err = Extract([]byte("ARXDCQE"), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DCQ", "CQE"}
	if len(kmers) != 2 || String(kmers[0].ID, 3) != want[0] || String(kmers[1].ID, 3) != want[1] {
		t.Errorf("got %d k-mers, want DCQ and CQE", len(kmers))
	}
	if kmers[0].Pos != 3 || kmers[1].Pos != 4 {
		t.Errorf("positions = %d,%d, want 3,4", kmers[0].Pos, kmers[1].Pos)
	}
}

func TestExtractBadK(t *testing.T) {
	if _, err := Extract([]byte("ARNDC"), 0, false); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := Extract([]byte("ARNDC"), MaxK+1, false); err == nil {
		t.Error("k too large should error")
	}
}

func TestExtractInvalidSequence(t *testing.T) {
	if _, err := Extract([]byte("AR1DC"), 3, false); err == nil {
		t.Error("invalid residue should error")
	}
}

// Property: the rolling-window extraction matches recomputing each window
// from scratch.
func TestRollingMatchesNaive(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		k := int(kRaw)%5 + 1
		codes := make([]alphabet.Code, len(raw))
		for i, v := range raw {
			codes[i] = alphabet.Code(v % alphabet.Size)
		}
		got := ExtractCodes(codes, k, false)
		if len(codes) < k {
			return len(got) == 0
		}
		if len(got) != len(codes)-k+1 {
			return false
		}
		for i := 0; i+k <= len(codes); i++ {
			if got[i].ID != Encode(codes[i:i+k]) || got[i].Pos != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Encode/Decode are inverse for any codes of length <= MaxK.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > MaxK {
			return true
		}
		codes := make([]alphabet.Code, len(raw))
		for i, v := range raw {
			codes[i] = alphabet.Code(v % alphabet.Size)
		}
		dec := Decode(Encode(codes), len(codes))
		for i := range codes {
			if dec[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
