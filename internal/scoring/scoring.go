// Package scoring provides amino acid substitution matrices and the derived
// "expense" tables used by the substitute k-mer search (paper Section IV-B).
//
// A substitution matrix C scores the alignment of two amino acids. The
// expense of replacing base a with base b is DIAG(C)[a] - C[a][b]: the score
// lost relative to an exact match. The expense matrix E of the paper is the
// row-sorted form of that difference, so E[a] lists the cheapest
// substitutions for a first.
package scoring

import (
	"fmt"
	"sort"

	"repro/internal/alphabet"
)

// StandardAACount is the number of unambiguous amino acids (the first 20
// letters of the alphabet). Substitute k-mer generation only proposes
// substitutions within this range: the ambiguity codes B/Z/X and the stop
// symbol are valid alignment targets but are never *introduced* as
// substitutes, matching how PASTIS treats the BLOSUM62 tail columns.
const StandardAACount = 20

// Matrix is a symmetric substitution matrix over the 24-letter alphabet.
type Matrix struct {
	Name   string
	scores [alphabet.Size][alphabet.Size]int8
}

// Score returns the substitution score between codes a and b.
func (m *Matrix) Score(a, b alphabet.Code) int {
	return int(m.scores[a][b])
}

// SelfScore returns the exact-match score DIAG(C)[a].
func (m *Matrix) SelfScore(a alphabet.Code) int { return int(m.scores[a][a]) }

// MaxScore returns the largest entry in the matrix (the best possible
// per-residue score), useful for x-drop bounds.
func (m *Matrix) MaxScore() int {
	best := int(m.scores[0][0])
	for i := 0; i < alphabet.Size; i++ {
		for j := 0; j < alphabet.Size; j++ {
			if s := int(m.scores[i][j]); s > best {
				best = s
			}
		}
	}
	return best
}

// newMatrix builds a Matrix from a row-major literal over the full alphabet
// and verifies symmetry; substitution matrices are symmetric by construction
// and an asymmetric literal is a transcription bug.
func newMatrix(name string, rows [alphabet.Size][alphabet.Size]int8) *Matrix {
	m := &Matrix{Name: name, scores: rows}
	for i := 0; i < alphabet.Size; i++ {
		for j := 0; j < alphabet.Size; j++ {
			if rows[i][j] != rows[j][i] {
				panic(fmt.Sprintf("scoring: %s is asymmetric at (%c,%c): %d vs %d",
					name, alphabet.Letters[i], alphabet.Letters[j], rows[i][j], rows[j][i]))
			}
		}
	}
	return m
}

// BLOSUM62 is the standard NCBI BLOSUM62 matrix in ARNDCQEGHILKMFPSTWYVBZX*
// order; it is the matrix shown in Fig. 6 of the paper and the default for
// both substitute k-mer generation and alignment (gap open 11, extend 1).
var BLOSUM62 = newMatrix("BLOSUM62", [alphabet.Size][alphabet.Size]int8{
	//   A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   B   Z   X   *
	{4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0, -2, -1, 0, -4},       // A
	{-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3, -1, 0, -1, -4},       // R
	{-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3, 3, 0, -1, -4},            // N
	{-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3, 4, 1, -1, -4},       // D
	{0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4},  // C
	{-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2, 0, 3, -1, -4},           // Q
	{-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4},          // E
	{0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3, -1, -2, -1, -4},    // G
	{-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3, 0, 0, -1, -4},        // H
	{-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3, -3, -3, -1, -4},     // I
	{-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1, -4, -3, -1, -4},     // L
	{-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2, 0, 1, -1, -4},        // K
	{-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1, -3, -1, -1, -4},      // M
	{-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1, -3, -3, -1, -4},      // F
	{-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2, -2, -1, -2, -4}, // P
	{1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2, 0, 0, 0, -4},            // S
	{0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0, -1, -1, 0, -4},      // T
	{-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3, -4, -3, -2, -4},  // W
	{-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1, -3, -2, -1, -4},    // Y
	{0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4, -3, -2, -1, -4},      // V
	{-2, -1, 3, 4, -3, 0, 1, -1, 0, -3, -4, 0, -3, -3, -2, 0, -1, -4, -3, -3, 4, 1, -1, -4},         // B
	{-1, 0, 0, 1, -3, 3, 4, -2, 0, -3, -3, 1, -1, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4},          // Z
	{0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2, 0, 0, -2, -1, -1, -1, -1, -1, -4},   // X
	{-4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, 1}, // *
})

// Identity is a toy matrix (match +1, mismatch -1) for tests: under it the
// m-nearest substitute k-mers are exactly the single-substitution neighbors
// in index order, and nearly every distance is a tie.
var Identity = func() *Matrix {
	var rows [alphabet.Size][alphabet.Size]int8
	for i := 0; i < alphabet.Size; i++ {
		for j := 0; j < alphabet.Size; j++ {
			if i == j {
				rows[i][j] = 1
			} else {
				rows[i][j] = -1
			}
		}
	}
	return newMatrix("Identity", rows)
}()

// Sub is one substitution option: replacing the source base costs Expense
// score units and produces Base.
type Sub struct {
	Expense int
	Base    alphabet.Code
}

// Expense is the sorted expense matrix E of the paper:
// E = SORT(DIAG(C) - C). Rows[a] lists, cheapest first, the substitutions of
// base a into each standard amino acid other than a itself. The first entry
// of the paper's E rows (the zero-expense self substitution) is omitted;
// paper indexing E[i][1] therefore corresponds to Rows[i][0] here.
type Expense struct {
	Matrix *Matrix
	Rows   [alphabet.Size][]Sub
}

// NewExpense derives the sorted expense table from a substitution matrix.
// Ties are broken by alphabet order so the result is deterministic.
func NewExpense(m *Matrix) *Expense {
	e := &Expense{Matrix: m}
	for a := 0; a < alphabet.Size; a++ {
		subs := make([]Sub, 0, StandardAACount-1)
		for b := 0; b < StandardAACount; b++ {
			if b == a {
				continue
			}
			subs = append(subs, Sub{
				Expense: int(m.scores[a][a]) - int(m.scores[a][b]),
				Base:    alphabet.Code(b),
			})
		}
		sort.Slice(subs, func(i, j int) bool {
			if subs[i].Expense != subs[j].Expense {
				return subs[i].Expense < subs[j].Expense
			}
			return subs[i].Base < subs[j].Base
		})
		e.Rows[a] = subs
	}
	return e
}

// Cheapest returns the lowest-expense substitution for base a
// (paper notation E[a][1]).
func (e *Expense) Cheapest(a alphabet.Code) Sub { return e.Rows[a][0] }
