package align

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/alphabet"
)

// Seed is one shared k-mer occurrence on a candidate pair, expressed in the
// orientation of the Align call: the seed starts at PosA in sequence a and
// PosB in sequence b and spans K residues. With substitute k-mers the seed
// residues may mismatch; kernels score the seed region against the matrix
// like any other.
type Seed struct {
	PosA, PosB int
	K          int
}

// Params bundles the parameters a kernel may consult. Kernels read only
// what applies to them: seedless kernels (sw, wfa) ignore XDrop, the
// extension kernels (xd, ug) use it as their termination threshold.
//
// Scoring and XDrop are per-run; SharedKmers is per-pair evidence the
// pipeline fills in before each Align call: the candidate pair's shared
// k-mer count (the Overlap.Count the common-k-mer filter thresholds), or
// 0 when unknown. Cascades use it as a rescue override — a pair sharing
// many k-mers is homologous even when its two retained seeds happen to
// lie off the true alignment diagonal and the ungapped prefilter scores
// it like noise (repeated k-mers pair first occurrences across the
// sequences, which need not correspond).
type Params struct {
	Scoring     Scoring
	XDrop       int
	SharedKmers int
}

// DefaultParams mirrors the paper's alignment configuration (BLOSUM62,
// gap open 11 / extend 1, x-drop 49).
func DefaultParams() Params { return Params{Scoring: DefaultScoring(), XDrop: 49} }

// Kernel is one pairwise-alignment kernel instance. The pipeline keeps one
// instance per worker, so implementations own reusable scratch (DP rows,
// wavefront arenas) and are NOT safe for concurrent use; a fresh instance
// from the same factory must produce bit-identical Results.
//
// Align scores one candidate pair. seeds lists the shared k-mer occurrences
// the overlap stage found (possibly empty); seeded kernels extend each seed
// and return the best-scoring extension (strictly-greater comparison, first
// seed wins ties), seedless kernels ignore the list. An error means the
// pair could not be processed at all (xd: ErrSequenceTooLong, parameters out
// of range) and fails the run; only seeds that fall outside the sequences
// are skipped, matching the pipeline's historical behavior.
//
// CellsComputed is the per-kernel cost-accounting hook: the cumulative DP
// cells this instance evaluated across all Align calls. "Cell" is one unit
// of scoring work — a full-matrix cell for sw, a live band cell for xd, a
// wavefront cell or extension comparison for wfa, a diagonal column for ug
// — and is the quantity the virtual clock charges, so sparse kernels are
// billed their sparse cost rather than an assumed full-matrix DP.
type Kernel interface {
	Name() string
	Align(a, b []alphabet.Code, seeds []Seed, p Params) (Result, error)
	CellsComputed() int64
}

// kernelRegistry maps registered kernel names to factories, preserving
// registration order so sweeps over kernels are deterministic.
var kernelRegistry = struct {
	mu        sync.RWMutex
	factories map[string]func() Kernel
	order     []string
}{factories: map[string]func() Kernel{}}

// RegisterKernel makes a kernel available under its factory's Name; the
// name becomes a valid pipeline alignment mode (core.Config.Align,
// cmd/pastis -align) and the kernel joins every registered-kernel sweep
// (experiments, benchmarks). Panics on an empty or duplicate name — kernel
// registration is init-time wiring, not a runtime condition.
func RegisterKernel(factory func() Kernel) {
	name := factory().Name()
	kernelRegistry.mu.Lock()
	defer kernelRegistry.mu.Unlock()
	if name == "" {
		panic("align: RegisterKernel with empty name")
	}
	if _, dup := kernelRegistry.factories[name]; dup {
		panic("align: duplicate kernel " + name)
	}
	kernelRegistry.factories[name] = factory
	kernelRegistry.order = append(kernelRegistry.order, name)
}

// KernelFactory returns the factory registered under name. Names
// containing '+' that are not themselves registered resolve as cascade
// specs (ParseCascade): "ug:60+sw" is a valid kernel name everywhere a
// registered one is, without needing registration.
func KernelFactory(name string) (func() Kernel, error) {
	kernelRegistry.mu.RLock()
	f, ok := kernelRegistry.factories[name]
	kernelRegistry.mu.RUnlock()
	if ok {
		return f, nil
	}
	if strings.Contains(name, "+") {
		return ParseCascade(name)
	}
	return nil, fmt.Errorf("align: unknown kernel %q (registered: %v)", name, Kernels())
}

// NewKernel instantiates the kernel registered under name.
func NewKernel(name string) (Kernel, error) {
	f, err := KernelFactory(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// Kernels lists the registered kernel names in registration order
// (sw, xd, wfa, ug, then the canonical ug+wfa cascade for the built-ins).
func Kernels() []string {
	kernelRegistry.mu.RLock()
	defer kernelRegistry.mu.RUnlock()
	return kernelNamesLocked()
}

func kernelNamesLocked() []string {
	return append([]string(nil), kernelRegistry.order...)
}

func init() {
	RegisterKernel(func() Kernel { return &swKernel{al: NewAligner()} })
	RegisterKernel(func() Kernel { return &xdKernel{al: NewAligner()} })
	RegisterKernel(func() Kernel { return newWFAKernel() })
	RegisterKernel(func() Kernel { return &ugKernel{al: NewAligner()} })
	// The canonical staged cascade (cascade.go): ungapped prefilter, wavefront
	// rescue — registered so kernel sweeps exercise a cascade; other specs
	// ("ug+sw", "ug:60+xd", ...) resolve dynamically through KernelFactory.
	RegisterKernel(MustCascade("ug+wfa"))
}

// swKernel is full Smith-Waterman local alignment (PASTIS-SW): exact and
// seed-oblivious, at the full la×lb DP cost.
type swKernel struct {
	al    *Aligner
	cells int64
}

func (k *swKernel) Name() string { return "sw" }

func (k *swKernel) Align(a, b []alphabet.Code, _ []Seed, p Params) (Result, error) {
	r := k.al.SmithWaterman(a, b, p.Scoring)
	k.cells += r.Cells
	return r, nil
}

func (k *swKernel) CellsComputed() int64 { return k.cells }

// xdKernel is seed-and-extend with gapped x-drop termination (PASTIS-XD):
// each seed extends toward both sequence ends, pruning cells that fall
// XDrop below the running best.
type xdKernel struct {
	al    *Aligner
	cells int64
}

func (k *xdKernel) Name() string { return "xd" }

func (k *xdKernel) Align(a, b []alphabet.Code, seeds []Seed, p Params) (Result, error) {
	xp := XDropParams{Scoring: p.Scoring, XDrop: p.XDrop}
	var best Result
	for _, s := range seeds {
		if !seedWithin(s.PosA, s.PosB, s.K, len(a), len(b)) {
			continue // seed fell off due to an inconsistent position
		}
		res, err := k.al.XDrop(a, b, s.PosA, s.PosB, s.K, xp)
		if err != nil {
			return Result{}, err
		}
		k.cells += res.Cells
		if res.Score > best.Score {
			best = res
		}
	}
	return best, nil
}

func (k *xdKernel) CellsComputed() int64 { return k.cells }

// ugKernel is ungapped diagonal extension around each seed (the MMseqs2
// prefilter alignment): the cheapest kernel, linear in the extension length
// with no gap handling, trading recall on gapped homologies for cost.
type ugKernel struct {
	al    *Aligner
	cells int64
}

func (k *ugKernel) Name() string { return "ug" }

func (k *ugKernel) Align(a, b []alphabet.Code, seeds []Seed, p Params) (Result, error) {
	var best Result
	for _, s := range seeds {
		if !seedWithin(s.PosA, s.PosB, s.K, len(a), len(b)) {
			continue // seed fell off due to an inconsistent position
		}
		res := k.al.UngappedExtend(a, b, s.PosA, s.PosB, s.K, p.Scoring, p.XDrop)
		k.cells += res.Cells
		if res.Score > best.Score {
			best = res
		}
	}
	return best, nil
}

func (k *ugKernel) CellsComputed() int64 { return k.cells }
