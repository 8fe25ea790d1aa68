package align

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/alphabet"
)

// This file implements the staged alignment cascade: a composite Kernel
// that runs each pair through an ordered list of stage kernels, MMseqs2
// style. Early stages are cheap prefilters (typically ug, the ungapped
// diagonal score); a pair whose stage result scores below the stage's
// permissive threshold is dismissed there — the cascade returns the zero
// Result, so the pair yields no edge under either the ANI or the NS
// weighting — while survivors are rescued by the next, more expensive
// stage (sw, xd or wfa). On candidate sets where most pairs are chance k-mer collisions the
// cascade reproduces the pure rescue-kernel similarity graph at a small
// fraction of its DP cells, because the quadratic kernel only ever runs on
// pairs the prefilter could not dismiss.
//
// Cascades are named by spec strings: stage names joined with '+', cheap
// to expensive, e.g. "ug+wfa" or "ug+sw". A stage may carry an explicit
// gate threshold as "name:score" ("ug:60+sw"); without one the stage gates
// at DefaultCascadeThreshold. Any spec resolves through KernelFactory, so
// cascades are valid pipeline alignment modes (core.Config.Align,
// cmd/pastis -align) exactly like primitive kernels; Kernels lists the
// canonical "ug+wfa" combination so kernel sweeps include a cascade.

// DefaultCascadeThreshold is the gate applied after a cascade stage that
// does not carry an explicit ":score" threshold: pairs whose stage result
// scores below it are rejected without running the remaining stages.
//
// The value is deliberately permissive, tuned to the boundary the
// prefilter actually has to draw. A chance k-mer collision scores about
// the seed region alone (a BLOSUM62 exact 6-mer is worth ~25-35) because
// ungapped extension around a spurious seed dies immediately, while any
// pair a gapped kernel would accept at the paper's 30%-identity /
// 70%-coverage cutoffs extends well past its seed. Rejecting below 45
// therefore dismisses bare-seed collisions while passing every pair with
// even a modest homologous extension on to the rescue stage.
const DefaultCascadeThreshold = 45

// CascadeKmerRescue is the shared-k-mer count (Params.SharedKmers) at
// which a cascade forwards a pair to the next stage regardless of its
// prefilter score. Seed-based prefilters have a blind spot: the pipeline
// retains at most two seeds per pair, and for sequences with repeated
// k-mers both can land off the true alignment diagonal, making a strongly
// homologous pair score like noise. Sharing this many k-mers is direct
// evidence of homology (the common-k-mer filter's logic, inverted:
// chance collisions share one or two, substitute-expanded collisions a
// handful), so such pairs are always worth the rescue alignment. Junk
// pairs essentially never reach this count, so the override costs almost
// nothing.
const CascadeKmerRescue = 8

// StageStats is one cascade stage's accounting snapshot: how many pairs
// the stage examined, how many its gate passed on, and the DP cells the
// stage kernel computed. For the final stage — which has no gate — every
// examined pair counts as passed. Counters are cumulative across the
// owning kernel instance's Align calls, like Kernel.CellsComputed.
type StageStats struct {
	Name     string
	Examined int64
	Passed   int64
	Cells    int64
}

// MergeStageStats sums src's per-stage counters into dst element-wise,
// growing dst as needed, and returns it. The pipeline merges worker
// instances into panels and panels into the run total with this; because
// the merge is field-wise integer addition, totals are identical for any
// thread count and wave count.
func MergeStageStats(dst, src []StageStats) []StageStats {
	for i, st := range src {
		if i == len(dst) {
			dst = append(dst, StageStats{Name: st.Name})
		}
		dst[i].Examined += st.Examined
		dst[i].Passed += st.Passed
		dst[i].Cells += st.Cells
	}
	return dst
}

// cascadeStage is one stage instance: its kernel, the gate applied to its
// results, and its pair counters (cells live in the kernel itself).
type cascadeStage struct {
	kernel    Kernel
	threshold int // gate for non-final stages; unused on the last stage
	examined  int64
	passed    int64
}

// Cascade is a composite alignment kernel running an ordered stage list
// (see the file comment). Like every Kernel it owns per-worker state and
// is not safe for concurrent use; fresh instances come from NewKernel or
// KernelFactory with a spec string.
type Cascade struct {
	spec   string
	stages []cascadeStage
}

// Name returns the canonical spec string ("ug+wfa", "ug:60+sw").
func (c *Cascade) Name() string { return c.spec }

// Align runs the pair through the stages in order. Each non-final stage's
// result is gated on its raw score: below the stage threshold the pair is
// dismissed with the zero Result — no edge under any weighting mode, just
// like a pair no kernel found an alignment for — unless the pair's
// shared-k-mer evidence (Params.SharedKmers >= CascadeKmerRescue)
// overrides the dismissal. Otherwise the next stage re-aligns the pair
// from scratch and its result replaces the prefilter's. The final stage's
// result is always final.
func (c *Cascade) Align(a, b []alphabet.Code, seeds []Seed, p Params) (Result, error) {
	last := len(c.stages) - 1
	for i := range c.stages {
		st := &c.stages[i]
		st.examined++
		res, err := st.kernel.Align(a, b, seeds, p)
		if err != nil {
			return Result{}, err
		}
		if i < last && res.Score < st.threshold && p.SharedKmers < CascadeKmerRescue {
			return Result{}, nil // dismissed by the prefilter; no rescue, no edge
		}
		st.passed++
		if i == last {
			return res, nil
		}
	}
	return Result{}, fmt.Errorf("align: cascade %q has no stages", c.spec)
}

// CellsComputed sums the stage kernels' cells: the cascade's cost is
// exactly what its stages actually computed, so the virtual clock charges
// prefilter-dismissed pairs only their prefilter cells.
func (c *Cascade) CellsComputed() int64 {
	var n int64
	for i := range c.stages {
		n += c.stages[i].kernel.CellsComputed()
	}
	return n
}

// StageStats returns one entry per stage, in stage order. A fresh instance
// returns zero counters with the stage names filled in, so callers can use
// it as a template before any work happens. The pipeline uses it to surface
// per-stage pair and cell breakdowns (core Stats.PairsPerStage and
// CellsPerStage) and to attribute per-stage alignment time on the virtual
// clock.
func (c *Cascade) StageStats() []StageStats {
	out := make([]StageStats, len(c.stages))
	for i := range c.stages {
		st := &c.stages[i]
		out[i] = StageStats{
			Name:     st.kernel.Name(),
			Examined: st.examined,
			Passed:   st.passed,
			Cells:    st.kernel.CellsComputed(),
		}
	}
	return out
}

// parsedStage is the validated form of one spec token.
type parsedStage struct {
	name      string
	factory   func() Kernel
	threshold int
}

// parseCascade validates a cascade spec string and returns a factory
// producing fresh Cascade instances. Specs are stage tokens joined with
// '+'; each token is a kernel table name, optionally with an explicit gate
// threshold as "name:score" on non-final stages. Rejected with descriptive
// errors: fewer than two stages, empty names or names not in the table
// ("none" included), malformed or negative thresholds, and a threshold on
// the final stage (which has no gate).
func parseCascade(spec string) (func() Kernel, error) {
	tokens := strings.Split(spec, "+")
	if len(tokens) < 2 {
		return nil, fmt.Errorf("align: cascade spec %q needs at least two '+'-separated stages", spec)
	}
	stages := make([]parsedStage, len(tokens))
	canonical := make([]string, len(tokens))
	for i, tok := range tokens {
		final := i == len(tokens)-1
		ps, err := parseStageToken(strings.TrimSpace(tok), final)
		if err != nil {
			return nil, fmt.Errorf("align: cascade spec %q: %w", spec, err)
		}
		stages[i] = ps
		canonical[i] = ps.name
		if !final && ps.threshold != DefaultCascadeThreshold {
			canonical[i] = fmt.Sprintf("%s:%d", ps.name, ps.threshold)
		}
	}
	name := strings.Join(canonical, "+")
	return func() Kernel {
		c := &Cascade{spec: name, stages: make([]cascadeStage, len(stages))}
		for i, ps := range stages {
			c.stages[i] = cascadeStage{kernel: ps.factory(), threshold: ps.threshold}
		}
		return c
	}, nil
}

// parseStageToken validates one stage token ("ug" or "ug:60").
func parseStageToken(tok string, final bool) (parsedStage, error) {
	ps := parsedStage{threshold: DefaultCascadeThreshold}
	name, thr, hasThr := strings.Cut(tok, ":")
	if hasThr {
		if final {
			return ps, fmt.Errorf("threshold %q on the final stage has no effect (the last stage has no gate)", tok)
		}
		v, err := strconv.Atoi(thr)
		if err != nil || v < 0 {
			return ps, fmt.Errorf("invalid stage threshold %q (want a non-negative integer)", tok)
		}
		ps.threshold = v
	}
	switch {
	case name == "":
		return ps, fmt.Errorf("empty stage name")
	case name == "none":
		return ps, fmt.Errorf("stage %q is not allowed inside a cascade (use a plain \"none\" alignment mode instead)", name)
	}
	f, ok := primitive(name)
	if !ok {
		return ps, fmt.Errorf("unknown stage kernel %q (primitive kernels: %v)", name, primitiveNames())
	}
	ps.name, ps.factory = name, f
	return ps, nil
}
