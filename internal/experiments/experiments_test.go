package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// tiny returns a scale small enough for unit tests (seconds, not minutes).
func tiny() Scale {
	return Scale{
		Name:     "tiny",
		DatasetA: 60, DatasetB: 120,
		NodesSmall:     []int{1, 4, 16},
		ScalingDataset: 120,
		NodesLarge:     []int{16, 64},
		WeakBase:       50,
		WeakNodes:      []int{4, 16},
		ScopeFamilies:  5,
	}
}

// testScale is tiny(), shrunk further under -short so the whole package
// stays in the tens-of-seconds range; the shape assertions are scale-free.
func testScale() Scale {
	sc := tiny()
	if testing.Short() {
		sc.Name = "short"
		sc.DatasetA, sc.DatasetB = 30, 60
		sc.ScalingDataset = 50
		sc.NodesLarge = []int{16, 64}
		sc.WeakBase = 40
		sc.ScopeFamilies = 4
	}
	return sc
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "x", Title: "test", Columns: []string{"a", "bb"}}
	tb.Add("1", 2.5)
	tb.Add("longer", 3)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x: test ==") || !strings.Contains(out, "longer") {
		t.Errorf("formatting output:\n%s", out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") || !strings.Contains(csv, "1,2.5\n") {
		t.Errorf("csv output:\n%s", csv)
	}
}

func TestSquareAtMost(t *testing.T) {
	cases := map[int]int{1: 1, 3: 1, 4: 4, 8: 4, 9: 9, 255: 225, 256: 256, 2048: 2025, 2025: 2025}
	for in, want := range cases {
		if got := squareAtMost(in); got != want {
			t.Errorf("squareAtMost(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestGetRegistry(t *testing.T) {
	if len(All()) != 15 {
		t.Errorf("expected 15 experiments, got %d", len(All()))
	}
	if _, err := Get("fig12"); err != nil {
		t.Error(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id should fail")
	}
}

// Smoke-run the cheap experiments end to end at tiny scale; the expensive
// ones are covered by the benchmark suite and integration test.
func TestScalingExperimentsRun(t *testing.T) {
	sc := testScale()
	ids := []string{"fig14strong", "fig14weak", "fig15", "fig16"}
	if testing.Short() {
		// fig15/fig16 exercise the same runPastisModel+SectionMean machinery
		// as fig14strong; smoke-run the two distinct paths only.
		ids = []string{"fig14strong", "fig14weak"}
	}
	for _, id := range ids {
		exp, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := exp.Fn(sc)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

// Strong scaling must actually scale: more nodes => less virtual time, for
// every substitute-k-mer count.
func TestStrongScalingShape(t *testing.T) {
	sc := testScale()
	if !testing.Short() {
		sc.NodesLarge = []int{16, 64, 256}
	}
	tb, err := Fig14Strong(sc)
	if err != nil {
		t.Fatal(err)
	}
	var prevSubs, violations int
	var prevTime float64
	prevSubs = -1
	for _, row := range tb.Rows {
		subs, tm := row[0], row[2]
		var s int
		var v float64
		if _, err := fmtSscan(subs, &s); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(tm, &v); err != nil {
			t.Fatal(err)
		}
		if s == prevSubs && v >= prevTime {
			violations++
		}
		prevSubs, prevTime = s, v
	}
	if violations > 0 {
		t.Errorf("%d scaling violations (time not decreasing with nodes):\n%s",
			violations, tb.CSV())
	}
}

// Weak scaling: nnz(B) must grow superlinearly (towards 4x per 2x
// sequences), the paper's quadratic-output observation.
func TestWeakScalingOutputGrowth(t *testing.T) {
	sc := testScale()
	tb, err := Fig14Weak(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in groups of len(WeakNodes) per subs value; sequences double
	// per step, so the sequence ratio across a group is 2^(steps-1).
	group := len(sc.WeakNodes)
	seqRatio := float64(int(1) << (group - 1))
	for g := 0; g+group <= len(tb.Rows); g += group {
		var first, last float64
		if _, err := fmtSscan(tb.Rows[g][4], &first); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(tb.Rows[g+group-1][4], &last); err != nil {
			t.Fatal(err)
		}
		// Quadratic output growth would be seqRatio^2; require comfortably
		// superlinear (the full-scale harness shows the ~4x-per-doubling).
		if last < first*seqRatio*1.3 {
			t.Errorf("nnzB grew only %.1fx over %gx sequences (subs group %d)",
				last/first, seqRatio, g/group)
		}
	}
}

// Thread scaling: the parallel stages must speed up with threads — at least
// 2x at 4 threads for the SpGEMM and alignment stage sum — and the sweep
// must saturate rather than regress. The experiment itself asserts the PSG
// is identical across thread counts.
func TestThreadScalingShape(t *testing.T) {
	sc := testScale()
	tb, err := ThreadScaling(sc)
	if err != nil {
		t.Fatal(err)
	}
	// rows: subs, threads, nodes, total_s, spgemm_s, align_s, speedup_vs_1t
	type key struct{ subs, threads int }
	stage := map[key]float64{}
	total := map[key]float64{}
	for _, row := range tb.Rows {
		var k key
		if _, err := fmtSscan(row[0], &k.subs); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[1], &k.threads); err != nil {
			t.Fatal(err)
		}
		var spgemm, alignT, tot float64
		if _, err := fmtSscan(row[4], &spgemm); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[5], &alignT); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[3], &tot); err != nil {
			t.Fatal(err)
		}
		stage[k] = spgemm + alignT
		total[k] = tot
	}
	for _, subs := range []int{0, 25} {
		s1 := stage[key{subs, 1}]
		s4 := stage[key{subs, 4}]
		if s1 <= 0 || s4 <= 0 {
			t.Fatalf("missing stage times for subs=%d: %v", subs, stage)
		}
		if speedup := s1 / s4; speedup < 2 {
			t.Errorf("subs=%d: SpGEMM+align speedup at 4 threads = %.2fx, want >= 2x", subs, speedup)
		}
		last := threadSweep[len(threadSweep)-1]
		if total[key{subs, last}] > total[key{subs, 1}] {
			t.Errorf("subs=%d: %d-thread total (%g) slower than serial (%g)",
				subs, last, total[key{subs, last}], total[key{subs, 1}])
		}
	}
}

// Blocked waves: peak live bytes must decrease monotonically as the block
// count grows (memory-bounded waves actually bound memory) while modeled
// runtime stays within 15% of the single-wave run. The experiment itself
// asserts the PSG is identical across the sweep.
func TestBlockedWavesShape(t *testing.T) {
	sc := testScale()
	tb, err := BlockedWaves(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(blockSweep) {
		t.Fatalf("expected %d rows, got %d", len(blockSweep), len(tb.Rows))
	}
	// rows: blocks, nodes, total_s, spgemm_s, align_s, wait_s, peak_bytes, bytes_on_wire
	var baseTime, prevPeak float64
	for i, row := range tb.Rows {
		var total, peak float64
		if _, err := fmtSscan(row[2], &total); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[6], &peak); err != nil {
			t.Fatal(err)
		}
		if peak <= 0 {
			t.Fatalf("row %d: no peak recorded: %v", i, row)
		}
		if i == 0 {
			baseTime = total
		} else {
			if peak >= prevPeak {
				t.Errorf("peak bytes not decreasing: blocks=%s peak=%g vs previous %g",
					row[0], peak, prevPeak)
			}
			if total > baseTime*1.15 {
				t.Errorf("blocks=%s: modeled runtime %g exceeds 1.15x single-wave %g",
					row[0], total, baseTime)
			}
		}
		prevPeak = peak
	}
}

// Kernels: one row per listed kernel; the experiment itself asserts the
// acceptance contract (wfa graph identical to sw at >=5x fewer cells on the
// high-identity workload), so a clean run is the real check. The shape
// assertions here cover the rest: sw computes the most cells, ug the least.
func TestKernelsExperimentShape(t *testing.T) {
	sc := testScale()
	tb, err := Kernels(sc)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]float64{}
	for _, row := range tb.Rows {
		var c float64
		if _, err := fmtSscan(row[4], &c); err != nil {
			t.Fatal(err)
		}
		cells[row[0]] = c
	}
	for _, name := range []string{"sw", "xd", "wfa", "ug"} {
		if cells[name] <= 0 {
			t.Fatalf("kernel %q missing or computed no cells: %v", name, tb.Rows)
		}
	}
	for name, c := range cells {
		if name != "sw" && c >= cells["sw"] {
			t.Errorf("kernel %s cells (%g) should be below sw (%g)", name, c, cells["sw"])
		}
	}
	if cells["ug"] >= cells["wfa"] {
		t.Errorf("ug cells (%g) should be below wfa (%g)", cells["ug"], cells["wfa"])
	}
}

// Cascade: the experiment itself asserts the acceptance contract (ug+sw
// graph identical to pure sw at >=3x fewer cells, nonzero prefilter
// rejects) on both workloads, so a clean run is the real check. The shape
// assertions cover the rest: cascade rows carry a stage breakdown, pure
// rows do not, and the canonical ug+wfa cascade undercuts pure wfa.
func TestCascadeExperimentShape(t *testing.T) {
	sc := testScale()
	tb, err := CascadeStaged(sc)
	if err != nil {
		t.Fatal(err)
	}
	// rows: workload, mode, nodes, total_s, align_s, dp_cells, cells_vs_sw,
	// examined, pre_reject, rescued, edges
	cells := map[string]float64{}
	for _, row := range tb.Rows {
		key := row[0] + "/" + row[1]
		var c float64
		if _, err := fmtSscan(row[5], &c); err != nil {
			t.Fatal(err)
		}
		cells[key] = c
		isCascade := row[1] == "ug+sw" || row[1] == "ug+wfa"
		if hasStages := row[8] != "-"; hasStages != isCascade {
			t.Errorf("%s: stage breakdown presence = %v, want %v (row %v)",
				key, hasStages, isCascade, row)
		}
	}
	for _, wl := range []string{"high-identity", "moderate"} {
		if cells[wl+"/ug+wfa"] <= 0 || cells[wl+"/wfa"] <= 0 {
			t.Fatalf("missing rows for workload %s: %v", wl, tb.Rows)
		}
		if cells[wl+"/ug+wfa"] >= cells[wl+"/wfa"] {
			t.Errorf("%s: ug+wfa cells (%g) should undercut pure wfa (%g)",
				wl, cells[wl+"/ug+wfa"], cells[wl+"/wfa"])
		}
	}
}

// fmtSscan wraps fmt.Sscan for terse error handling in tests.
func fmtSscan(s string, v any) (int, error) {
	return fmt.Sscan(s, v)
}

// The ablations table's substitute-search row is measured: the bounded
// search agrees with the naive enumeration on every one of its 20 roots,
// and the naive side visits the 20³−1 k-mers that differ from a standard
// root.
func TestAblationSearchRowMeasured(t *testing.T) {
	agree, naive, err := searchAblation(20)
	if err != nil {
		t.Fatal(err)
	}
	if agree != 20 || naive != 20*20*20-1 {
		t.Errorf("%d/20 roots agree, naive candidates per root %d; want 20/20 and %d", agree, naive, 20*20*20-1)
	}
}
