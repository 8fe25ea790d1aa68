// Package kmer provides k-mer identifiers and extraction for protein
// sequences.
//
// Following the paper (Section V-B), each k-mer is assigned a unique number
// in base 24: the base with index b at zero-based position i from the right
// contributes b*24^i. Under the ARNDCQEGHILKMFPSTWYVBZX* alphabet the 3-mer
// RCQ has id 1*24^2 + 4*24 + 5 = 677.
package kmer

import (
	"fmt"

	"repro/internal/alphabet"
)

// MaxK is the largest supported k-mer length: 24^13 still fits in a uint64
// but 24^14 overflows, and we keep one factor of headroom for arithmetic.
const MaxK = 12

// ID is the base-24 integer identifier of a k-mer.
type ID uint64

// SpaceSize returns |Σ|^k, the size of the k-mer space.
func SpaceSize(k int) uint64 {
	n := uint64(1)
	for i := 0; i < k; i++ {
		n *= alphabet.Size
	}
	return n
}

// Encode computes the ID of the k-mer given by codes.
func Encode(codes []alphabet.Code) ID {
	var id ID
	for _, c := range codes {
		id = id*alphabet.Size + ID(c)
	}
	return id
}

// Decode expands an ID back into its k codes.
func Decode(id ID, k int) []alphabet.Code {
	codes := make([]alphabet.Code, k)
	for i := k - 1; i >= 0; i-- {
		codes[i] = alphabet.Code(id % alphabet.Size)
		id /= alphabet.Size
	}
	return codes
}

// String renders an ID as its amino acid letters.
func String(id ID, k int) string {
	return string(alphabet.DecodeSeq(Decode(id, k)))
}

// SetBase returns the ID obtained by replacing the base at zero-based
// position pos (from the left, as in sequence order) with code c.
func SetBase(id ID, k, pos int, c alphabet.Code) ID {
	shift := pow24(k - 1 - pos)
	old := (uint64(id) / shift) % alphabet.Size
	return ID(uint64(id) - old*shift + uint64(c)*shift)
}

// BaseAt returns the code at zero-based position pos from the left.
func BaseAt(id ID, k, pos int) alphabet.Code {
	return alphabet.Code((uint64(id) / pow24(k-1-pos)) % alphabet.Size)
}

func pow24(n int) uint64 {
	p := uint64(1)
	for i := 0; i < n; i++ {
		p *= alphabet.Size
	}
	return p
}

// Kmer is one k-mer occurrence in a sequence.
type Kmer struct {
	ID  ID
	Pos int // zero-based start offset within the sequence
}

// Extract lists the k-mers of seq in order of occurrence. A sequence of
// length L yields L-k+1 k-mers (paper Section IV-C). K-mers containing a
// base outside the 20 standard amino acids (ambiguity codes B/Z/X or '*')
// are skipped when skipAmbiguous is set, which is how the pipeline avoids
// seeding alignments on low-information positions.
func Extract(seq []byte, k int, skipAmbiguous bool) ([]Kmer, error) {
	if k <= 0 || k > MaxK {
		return nil, fmt.Errorf("kmer: k=%d out of range [1,%d]", k, MaxK)
	}
	if len(seq) < k {
		return nil, nil
	}
	codes, err := alphabet.EncodeSeq(seq)
	if err != nil {
		return nil, err
	}
	return ExtractCodes(codes, k, skipAmbiguous), nil
}

// ExtractCodes is Extract on a pre-encoded sequence. It uses a rolling
// base-24 window so each position costs O(1).
func ExtractCodes(codes []alphabet.Code, k int, skipAmbiguous bool) []Kmer {
	if len(codes) < k || k <= 0 || k > MaxK {
		return nil
	}
	return AppendCodes(make([]Kmer, 0, len(codes)-k+1), codes, k, skipAmbiguous)
}

// AppendCodes is ExtractCodes appending to out, for a caller that reuses
// one buffer across sequences.
func AppendCodes(out []Kmer, codes []alphabet.Code, k int, skipAmbiguous bool) []Kmer {
	if len(codes) < k || k <= 0 || k > MaxK {
		return out
	}
	top := pow24(k - 1)
	var id ID
	ambiguous := 0 // count of non-standard codes in the current window
	for i, c := range codes {
		if i >= k {
			// Slide: drop the leftmost base.
			left := codes[i-k]
			id -= ID(uint64(left) * top)
			if left >= 20 {
				ambiguous--
			}
		}
		id = id*alphabet.Size + ID(c)
		if c >= 20 {
			ambiguous++
		}
		if i >= k-1 {
			if !skipAmbiguous || ambiguous == 0 {
				out = append(out, Kmer{ID: id, Pos: i - k + 1})
			}
		}
	}
	return out
}

// CountDistinct returns the number of distinct k-mer IDs in kmers.
func CountDistinct(kmers []Kmer) int {
	seen := make(map[ID]struct{}, len(kmers))
	for _, km := range kmers {
		seen[km.ID] = struct{}{}
	}
	return len(seen)
}
