package align

import (
	"math/rand"
	"strings"
	"testing"
)

// Bad cascade specs must be rejected with errors that name the problem;
// the table covers every rule parseCascade enforces.
func TestParseCascadeRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "at least two"},
		{"ug", "at least two"},
		{"+", "empty stage"},
		{"ug+", "empty stage"},
		{"+wfa", "empty stage"},
		{"ug++wfa", "empty stage"},
		{"ug+nope", `unknown stage kernel "nope"`},
		{"bogus+sw", `unknown stage kernel "bogus"`},
		{"ug+none", `"none" is not allowed inside a cascade`},
		{"none+sw", `"none" is not allowed inside a cascade`},
		{"ug:x+sw", "invalid stage threshold"},
		{"ug:-5+sw", "invalid stage threshold"},
		{"ug:+sw", "invalid stage threshold"},
		{"ug+sw:30", "final stage has no effect"},
		{"ug:1:2+sw", "invalid stage threshold"},
	}
	for _, tc := range cases {
		_, err := parseCascade(tc.spec)
		if err == nil {
			t.Errorf("spec %q: expected an error", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: error %q does not mention %q", tc.spec, err, tc.want)
		}
	}
	// KernelFactory must surface the same errors for '+' names...
	if _, err := KernelFactory("ug+nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("KernelFactory cascade fallback error: %v", err)
	}
	// ...and still reject unknown plain names.
	if _, err := KernelFactory("nope"); err == nil {
		t.Error("unknown plain kernel should fail")
	}
}

func TestParseCascadeSpecs(t *testing.T) {
	for spec, wantName := range map[string]string{
		"ug+wfa":      "ug+wfa",
		"ug+sw":       "ug+sw",
		"ug:60+sw":    "ug:60+sw",
		" ug + wfa ":  "ug+wfa", // tokens are trimmed
		"ug:45+sw":    "ug+sw",  // the default threshold normalizes away
		"ug+xd+sw":    "ug+xd+sw",
		"ug:20+xd+sw": "ug:20+xd+sw",
	} {
		f, err := parseCascade(spec)
		if err != nil {
			t.Errorf("spec %q: %v", spec, err)
			continue
		}
		k := f()
		if k.Name() != wantName {
			t.Errorf("spec %q: name %q, want %q", spec, k.Name(), wantName)
		}
		c, ok := k.(*Cascade)
		if !ok {
			t.Fatalf("spec %q: kernel %T is not a *Cascade", spec, k)
		}
		stages := c.StageStats()
		if len(stages) != strings.Count(wantName, "+")+1 {
			t.Errorf("spec %q: %d stages", spec, len(stages))
		}
		for _, st := range stages {
			if st.Examined != 0 || st.Passed != 0 || st.Cells != 0 {
				t.Errorf("spec %q: fresh cascade has nonzero stage stats %+v", spec, st)
			}
		}
	}
	// The canonical cascade resolves like any kernel. A cascade is not a
	// valid stage of another cascade: the spec syntax cannot even express
	// one, since '+' always splits.
	if k, err := NewKernel("ug+wfa"); err != nil || k.Name() != "ug+wfa" {
		t.Errorf("canonical cascade: %v, %v", k, err)
	}
}

// mustCascade resolves a known-good cascade spec to a fresh Cascade.
func mustCascade(t *testing.T, spec string) *Cascade {
	t.Helper()
	k, err := NewKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	return k.(*Cascade)
}

// The cascade gate: pairs whose prefilter score clears the stage threshold
// are rescued — the cascade returns the rescue kernel's exact result — and
// pairs below it are finalized with the cheap prefilter result. Stage
// counters and cells must track both paths.
func TestCascadeGateAndStageStats(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := DefaultParams()
	k := mustCascade(t, "ug+sw")
	sw, _ := NewKernel("sw")
	ug, _ := NewKernel("ug")

	// A high-identity pair extends far past its seed: rescued.
	a := randomSeq(rng, 200)
	b := mutateSeq(rng, a, 0.05, 0)
	seeds := []Seed{{PosA: 0, PosB: 0, K: 6}}
	copy(b[:6], a[:6])
	got, err := k.Align(a, b, seeds, p)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sw.Align(a, b, seeds, p)
	if got != want {
		t.Errorf("rescued pair: cascade %+v != sw %+v", got, want)
	}

	// Two unrelated sequences sharing only the seed k-mer: the ungapped
	// extension dies at the seed and the pair is dismissed — the cascade
	// returns the zero Result (no edge under any weighting mode) and no sw
	// cells are spent.
	c := randomSeq(rng, 200)
	copy(c[:6], a[:6])
	swCellsBefore := k.stages[1].kernel.CellsComputed()
	got, err = k.Align(a, c, seeds, p)
	if err != nil {
		t.Fatal(err)
	}
	ugRes, _ := ug.Align(a, c, seeds, p)
	if ugRes.Score >= DefaultCascadeThreshold {
		t.Fatalf("test pair unexpectedly strong (ug score %d); pick a new seed", ugRes.Score)
	}
	if got != (Result{}) {
		t.Errorf("dismissed pair should yield the zero Result, got %+v", got)
	}
	if spent := k.stages[1].kernel.CellsComputed() - swCellsBefore; spent != 0 {
		t.Errorf("dismissed pair charged %d sw cells", spent)
	}

	stages := k.StageStats()
	if stages[0].Name != "ug" || stages[1].Name != "sw" {
		t.Fatalf("stage names %+v", stages)
	}
	if stages[0].Examined != 2 || stages[0].Passed != 1 {
		t.Errorf("prefilter stage: %+v, want 2 examined / 1 passed", stages[0])
	}
	if stages[1].Examined != 1 || stages[1].Passed != 1 {
		t.Errorf("rescue stage: %+v, want 1 examined / 1 passed", stages[1])
	}
	if total, s0, s1 := k.CellsComputed(), stages[0].Cells, stages[1].Cells; total != s0+s1 {
		t.Errorf("cells %d != stage sum %d+%d", total, s0, s1)
	}
}

// An explicit ":score" threshold moves the gate: with an absurdly high
// threshold everything is dismissed, with 0 everything is rescued.
func TestCascadeExplicitThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := DefaultParams()
	a := randomSeq(rng, 150)
	b := mutateSeq(rng, a, 0.05, 0)
	seeds := []Seed{{PosA: 0, PosB: 0, K: 6}}
	copy(b[:6], a[:6])

	strict := mustCascade(t, "ug:100000+sw")
	if _, err := strict.Align(a, b, seeds, p); err != nil {
		t.Fatal(err)
	}
	if st := strict.StageStats(); st[0].Passed != 0 || st[1].Examined != 0 {
		t.Errorf("threshold 100000 should dismiss everything: %+v", st)
	}

	open := mustCascade(t, "ug:0+sw")
	if _, err := open.Align(a, b, seeds, p); err != nil {
		t.Fatal(err)
	}
	if st := open.StageStats(); st[0].Passed != 1 || st[1].Examined != 1 {
		t.Errorf("threshold 0 should rescue everything: %+v", st)
	}
}
