package align

import (
	"fmt"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/scoring"
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

// Kernel is one pairwise-alignment kernel instance. The pipeline keeps one
// instance per worker, so implementations own reusable scratch (DP rows,
// wavefront arenas) and are NOT safe for concurrent use; a fresh instance
// from the same factory must produce bit-identical Results.
//
// Align scores one candidate pair. seeds lists the shared k-mer occurrences
// the overlap stage found (possibly empty); seeded kernels return the
// best-scoring seed extension (strictly-greater comparison, first seed wins
// ties), seedless kernels ignore the list. A seeded kernel extends each seed
// once, except a seed that lies in one exact run of dominant residues with
// an earlier in-bounds seed (seedRuns): both extensions provably reach the
// same score, so the earlier seed already wins the tie and the later one
// only costs cells. An error means the pair could not be processed at all
// (xd: ErrSequenceTooLong, parameters out of range) and fails the run; only
// seeds that fall outside the sequences are skipped, matching the
// pipeline's historical behavior.
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

// kernels is the kernel table: the primitive kernels, in the order every
// kernel sweep (experiments, benchmarks) visits them. A row makes its name a
// pipeline alignment mode (core.Config.Align, cmd/pastis -align) and a valid
// cascade stage with no further wiring.
var kernels = []struct {
	name string
	make func() Kernel
}{
	{"sw", func() Kernel { return &swKernel{} }},
	{"xd", func() Kernel { return &xdKernel{} }},
	{"wfa", func() Kernel { return &wfaKernel{} }},
	{"ug", func() Kernel { return &ugKernel{} }},
}

// canonicalCascade is the staged cascade (cascade.go) Kernels lists after
// the primitives — ungapped prefilter, wavefront rescue — so kernel sweeps
// exercise a cascade; other specs ("ug+sw", "ug:60+xd", ...) resolve the
// same way through KernelFactory.
const canonicalCascade = "ug+wfa"

// primitive looks name up in the kernel table.
func primitive(name string) (func() Kernel, bool) {
	for _, row := range kernels {
		if row.name == name {
			return row.make, true
		}
	}
	return nil, false
}

// primitiveNames lists the kernel table's names in table order.
func primitiveNames() []string {
	names := make([]string, len(kernels))
	for i, row := range kernels {
		names[i] = row.name
	}
	return names
}

// KernelFactory returns the factory for a kernel table name, or for a
// cascade spec when name contains '+' ("ug:60+sw"; see parseCascade).
func KernelFactory(name string) (func() Kernel, error) {
	if f, ok := primitive(name); ok {
		return f, nil
	}
	if strings.Contains(name, "+") {
		return parseCascade(name)
	}
	return nil, fmt.Errorf("align: unknown kernel %q (kernels: %v)", name, Kernels())
}

// NewKernel instantiates the kernel KernelFactory resolves name to.
func NewKernel(name string) (Kernel, error) {
	f, err := KernelFactory(name)
	if err != nil {
		return nil, err
	}
	return f(), nil
}

// Kernels lists the kernel table's names in table order (sw, xd, wfa, ug),
// then the canonical ug+wfa cascade.
func Kernels() []string {
	return append(primitiveNames(), canonicalCascade)
}

// swKernel is full Smith-Waterman local alignment (PASTIS-SW): exact and
// seed-oblivious, at the full la×lb DP cost. It owns the DP's rolling score
// rows and packed direction matrix, grown to the largest pair seen and never
// cleared between pairs (smithWaterman writes every cell it reads).
type swKernel struct {
	prevH, curH []int32
	prevE, curE []int32
	prevF, curF []int32
	dirs        []byte
	cells       int64
}

func (sw *swKernel) Name() string { return "sw" }

func (sw *swKernel) Align(a, b []alphabet.Code, _ []Seed, p Params) (Result, error) {
	r := sw.smithWaterman(a, b, p)
	sw.cells += r.Cells
	return r, nil
}

func (sw *swKernel) CellsComputed() int64 { return sw.cells }

// xdKernel is seed-and-extend with gapped x-drop termination (PASTIS-XD):
// each seed extends toward both sequence ends, pruning cells that fall
// XDrop below the running best. It owns the extension rows (see xdCell),
// the seed-reversal scratch, the diagonal-step table of the scoring matrix
// last used (xdPrepare) and that matrix's dominant residues (seedRuns); a
// warm instance aligns without allocating.
//
// A seed in one exact run of dominant residues with an earlier seed is not
// extended. Its extension would score the same as the earlier one's: a path
// that leaves the run inside it aligns run residues against residues that
// score at most their matches and pays gaps, so it never beats the path
// along the run, and past both seeds the two extensions see the same cells
// shifted by the run's score, with the same x-drop decisions
// (docs/ARCHITECTURE.md, "Seeds of one run"). The tie goes to the earlier
// seed, as it would had both been extended.
type xdKernel struct {
	xdPrev, xdCur []xdCell
	revA, revB    []alphabet.Code
	xdDiag        [alphabet.Size][alphabet.Size]int64
	runs          seedRuns
	xdMatrix      *scoring.Matrix
	xdMatrixMax   int
	cells         int64
}

func (xd *xdKernel) Name() string { return "xd" }

func (xd *xdKernel) Align(a, b []alphabet.Code, seeds []Seed, p Params) (Result, error) {
	var best Result
	for i, s := range seeds {
		if !seedWithin(s.PosA, s.PosB, s.K, len(a), len(b)) {
			continue // seed fell off due to an inconsistent position
		}
		if xd.runs.repeats(a, b, seeds[:i], s, p) {
			continue // ties an earlier seed's extension
		}
		res, err := xd.xDrop(a, b, s.PosA, s.PosB, s.K, p)
		if err != nil {
			return Result{}, err
		}
		xd.cells += res.Cells
		if res.Score > best.Score {
			best = res
		}
	}
	return best, nil
}

func (xd *xdKernel) CellsComputed() int64 { return xd.cells }

// ugKernel is ungapped diagonal extension around each seed (the MMseqs2
// prefilter alignment): the cheapest kernel, linear in the extension length
// with no gap handling, trading recall on gapped homologies for cost. The
// scan needs no buffers, so the kernel is its cell counter and the dominant
// residues of the scoring matrix last used (seedRuns).
//
// A seed in one exact run of dominant residues with an earlier seed is not
// extended: each scan from the earlier seed first crosses the run cells
// between the two, every one a new best (their scores are positive), and
// from there it is the later seed's scan shifted by their sum, so both reach
// the same score and the tie goes to the earlier seed, as it would had both
// been extended.
type ugKernel struct {
	runs  seedRuns
	cells int64
}

func (k *ugKernel) Name() string { return "ug" }

func (k *ugKernel) Align(a, b []alphabet.Code, seeds []Seed, p Params) (Result, error) {
	var best Result
	for i, s := range seeds {
		if !seedWithin(s.PosA, s.PosB, s.K, len(a), len(b)) {
			continue // seed fell off due to an inconsistent position
		}
		if k.runs.repeats(a, b, seeds[:i], s, p) {
			continue // ties an earlier seed's extension
		}
		res := ungappedExtend(a, b, s.PosA, s.PosB, s.K, p)
		k.cells += res.Cells
		if res.Score > best.Score {
			best = res
		}
	}
	return best, nil
}

func (k *ugKernel) CellsComputed() int64 { return k.cells }

// seedRuns finds the seeds the extension kernels need not extend. Residue y
// is dominant under a matrix S when S(y,y) > 0 and no pair holding y scores
// more than its match: S(x,y) <= S(y,y) and S(y,x) <= S(y,y) for every x
// (under BLOSUM62 every code but X). Two seeds on one diagonal whose span,
// from the first start to the last end, is an exact run of dominant
// residues extend to the same score under xd and ug alike.
type seedRuns struct {
	matrix   *scoring.Matrix
	dominant [alphabet.Size]bool
}

// repeats reports whether seed s lies in one exact run of dominant residues
// with one of the earlier seeds that lies inside the sequences; s is inside
// them. A negative XDrop, which stops a scan after its first cell, or a
// negative seed length voids the argument, so neither ever repeats.
func (r *seedRuns) repeats(a, b []alphabet.Code, earlier []Seed, s Seed, p Params) bool {
	if len(earlier) == 0 || p.XDrop < 0 || s.K < 0 {
		return false
	}
	if m := p.Scoring.Matrix; r.matrix != m {
		for y := range r.dominant {
			self := m.Score(alphabet.Code(y), alphabet.Code(y))
			ok := self > 0
			for x := 0; ok && x < alphabet.Size; x++ {
				ok = m.Score(alphabet.Code(x), alphabet.Code(y)) <= self &&
					m.Score(alphabet.Code(y), alphabet.Code(x)) <= self
			}
			r.dominant[y] = ok
		}
		r.matrix = m
	}
	diag := s.PosA - s.PosB
	for _, t := range earlier {
		if t.PosA-t.PosB != diag || t.K < 0 || !seedWithin(t.PosA, t.PosB, t.K, len(a), len(b)) {
			continue
		}
		i, end := min(s.PosA, t.PosA), max(s.PosA+s.K, t.PosA+t.K)
		for ; i < end && a[i] == b[i-diag] && r.dominant[a[i]]; i++ {
		}
		if i == end {
			return true
		}
	}
	return false
}
