package scoring

import (
	"testing"
	"testing/quick"

	"repro/internal/alphabet"
)

func code(t *testing.T, b byte) alphabet.Code {
	t.Helper()
	c := alphabet.Encode(b)
	if c == alphabet.Invalid {
		t.Fatalf("invalid letter %q", b)
	}
	return c
}

// The paper's worked example (Section IV-B): AAC scores 4+4+9=17 exactly;
// the cheapest substitution of A is S (score 1); SSC scores 11; C→M scores -1.
func TestPaperExampleScores(t *testing.T) {
	a, c, s, m := code(t, 'A'), code(t, 'C'), code(t, 'S'), code(t, 'M')

	if got := BLOSUM62.SelfScore(a) + BLOSUM62.SelfScore(a) + BLOSUM62.SelfScore(c); got != 17 {
		t.Errorf("self score of AAC = %d, want 17", got)
	}
	if got := BLOSUM62.Score(a, s); got != 1 {
		t.Errorf("A vs S = %d, want 1", got)
	}
	// SAC matched against AAC: 1 + 4 + 9.
	sac := BLOSUM62.Score(s, a) + BLOSUM62.Score(a, a) + BLOSUM62.Score(c, c)
	if sac != 14 {
		t.Errorf("SAC vs AAC = %d, want 14", sac)
	}
	ssc := BLOSUM62.Score(s, a) + BLOSUM62.Score(s, a) + BLOSUM62.Score(c, c)
	if ssc != 11 {
		t.Errorf("SSC vs AAC = %d, want 11", ssc)
	}
	if got := BLOSUM62.Score(c, m); got != -1 {
		t.Errorf("C vs M = %d, want -1", got)
	}
}

func TestBLOSUM62KnownValues(t *testing.T) {
	cases := []struct {
		a, b byte
		want int
	}{
		{'W', 'W', 11}, {'C', 'C', 9}, {'H', 'H', 8}, {'P', 'P', 7},
		{'A', 'A', 4}, {'I', 'V', 3}, {'R', 'K', 2}, {'D', 'E', 2},
		{'W', 'C', -2}, {'G', 'I', -4}, {'*', 'A', -4}, {'*', '*', 1},
		{'X', 'X', -1}, {'B', 'D', 4}, {'Z', 'E', 4},
	}
	for _, tc := range cases {
		if got := BLOSUM62.Score(code(t, tc.a), code(t, tc.b)); got != tc.want {
			t.Errorf("BLOSUM62(%c,%c) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMaxMinScore(t *testing.T) {
	if got := BLOSUM62.MaxScore(); got != 11 {
		t.Errorf("MaxScore = %d, want 11 (W/W)", got)
	}
}

func TestSymmetryProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		ca := alphabet.Code(a % alphabet.Size)
		cb := alphabet.Code(b % alphabet.Size)
		return BLOSUM62.Score(ca, cb) == BLOSUM62.Score(cb, ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Within the 20 standard amino acids, the BLOSUM62 diagonal strictly
// dominates its row, so every expense is positive. The substitute k-mer
// pruning argument (Algorithm 1) relies on this.
func TestExpensesPositive(t *testing.T) {
	e := NewExpense(BLOSUM62)
	for a := 0; a < StandardAACount; a++ {
		for _, sub := range e.Rows[a] {
			if sub.Expense <= 0 {
				t.Errorf("expense of %c->%c = %d, want > 0",
					alphabet.Letters[a], alphabet.Decode(sub.Base), sub.Expense)
			}
		}
	}
}

func TestExpenseSorted(t *testing.T) {
	e := NewExpense(BLOSUM62)
	for a := 0; a < alphabet.Size; a++ {
		row := e.Rows[a]
		if len(row) == 0 {
			t.Fatalf("empty expense row for %c", alphabet.Letters[a])
		}
		for i := 1; i < len(row); i++ {
			if row[i].Expense < row[i-1].Expense {
				t.Errorf("row %c not sorted at %d: %v", alphabet.Letters[a], i, row)
			}
		}
	}
}

// Paper example: the cheapest substitution of A is S at expense 4-1=3
// (E[A] = {(0,A),(3,S),...} in paper indexing; our rows drop the self entry).
func TestExpensePaperRow(t *testing.T) {
	e := NewExpense(BLOSUM62)
	a := code(t, 'A')
	first := e.Cheapest(a)
	if alphabet.Decode(first.Base) != 'S' || first.Expense != 3 {
		t.Errorf("cheapest sub for A = (%d,%c), want (3,S)",
			first.Expense, alphabet.Decode(first.Base))
	}
}

func TestExpenseRowSize(t *testing.T) {
	e := NewExpense(BLOSUM62)
	for a := 0; a < StandardAACount; a++ {
		if len(e.Rows[a]) != StandardAACount-1 {
			t.Errorf("row %c has %d entries, want %d",
				alphabet.Letters[a], len(e.Rows[a]), StandardAACount-1)
		}
	}
	// Ambiguity codes still get full rows of standard targets.
	x := code(t, 'X')
	if len(e.Rows[x]) != StandardAACount {
		t.Errorf("row X has %d entries, want %d", len(e.Rows[x]), StandardAACount)
	}
}

func TestIdentityExpense(t *testing.T) {
	e := NewExpense(Identity)
	for a := 0; a < StandardAACount; a++ {
		for _, sub := range e.Rows[a] {
			if sub.Expense != 2 {
				t.Errorf("identity expense should be uniform 2, got %d", sub.Expense)
			}
		}
	}
}
