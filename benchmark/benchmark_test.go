package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	pastis "repro"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{3}, 50, 3},
		{[]float64{4, 1, 3}, 50, 3},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 95, 4.8},
		{[]float64{10, 20}, 25, 12.5},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	xs := []float64{5, 1, 4}
	if median(xs) != 4 || !reflect.DeepEqual(xs, []float64{5, 1, 4}) {
		t.Errorf("median must not reorder its argument: %v", xs)
	}
}

func sampleEdges() []pastis.Edge {
	return []pastis.Edge{
		{R: 0, C: 3, Weight: 0.5, Ident: 0.5, Cov: 0.9, NS: 2.25, Score: 120},
		{R: 1, C: 2, Weight: 0.75, Ident: 0.75, Cov: 1, NS: 3.5, Score: 310},
		{R: 2, C: 7, Weight: 0.31, Ident: 0.31, Cov: 0.71, NS: 1.125, Score: 64},
	}
}

func TestEdgeDigestIsStable(t *testing.T) {
	edges := sampleEdges()
	// A golden value: the digest is compared across processes and commits,
	// so its definition must not drift.
	const golden = uint64(0x12a1ccc42ab2d731)
	if got := edgeDigest(edges); got != golden {
		t.Errorf("edgeDigest = %#x, want %#x", got, golden)
	}
	shuffled := []pastis.Edge{edges[2], edges[0], edges[1]}
	if edgeDigest(shuffled) != edgeDigest(edges) {
		t.Error("edgeDigest depends on the order of the edges")
	}
}

// One weight off by one unit in the last place must fail the output check.
func TestOracleTripsOnOnePerturbedWeight(t *testing.T) {
	ref := sampleEdges()
	fx := &fixture{refEdges: ref, refFP: edgeDigest(ref)}
	if err := fx.checkGraph(&pastis.Result{Edges: sampleEdges()}); err != nil {
		t.Fatalf("identical graph rejected: %v", err)
	}
	bad := sampleEdges()
	bad[1].Weight = math.Nextafter(bad[1].Weight, 1)
	if err := fx.checkGraph(&pastis.Result{Edges: bad}); err == nil {
		t.Error("a weight one ulp off passed the all-vs-all output check")
	}

	members := []int{3, 5}
	refHits := make([][]pastis.Hit, 6)
	refHits[3] = []pastis.Hit{{Target: 1, Weight: 0.5, Ident: 0.5, Cov: 0.8, NS: 2, Score: 99}}
	refHits[5] = []pastis.Hit{{Target: 3, Weight: 0.4, Ident: 0.4, Cov: 0.9, NS: 1.5, Score: 70}}
	hits := []pastis.Hit{
		{Query: 1, Target: 5, Weight: 1, Ident: 1, Cov: 1, NS: 5, Score: 500}, // own row: dropped
		{Query: 1, Target: 3, Weight: 0.4, Ident: 0.4, Cov: 0.9, NS: 1.5, Score: 70},
		{Query: 0, Target: 1, Weight: 0.5, Ident: 0.5, Cov: 0.8, NS: 2, Score: 99},
	}
	if hitDigest(members, hits) != expectedHitDigest(members, refHits) {
		t.Fatal("hits equal to the reference rows rejected")
	}
	hits[2].Weight = math.Nextafter(hits[2].Weight, 0)
	if hitDigest(members, hits) == expectedHitDigest(members, refHits) {
		t.Error("a weight one ulp off passed the query output check")
	}
}

func TestEdgeDifference(t *testing.T) {
	a, b := sampleEdges(), sampleEdges()
	if d := edgeDifference(a, b); d != 0 {
		t.Errorf("equal graphs differ by %d", d)
	}
	b[0].Score++                               // same pair, other values
	b = append(b[:2], pastis.Edge{R: 4, C: 5}) // drops (2,7), adds (4,5)
	if d := edgeDifference(a, b); d != 3 {
		t.Errorf("edgeDifference = %d, want 3", d)
	}
}

func TestPairQuality(t *testing.T) {
	families := []int{0, 0, 0, 1, 1, -1}
	// 4 same-family pairs exist; 2 are found, plus one false pair.
	found := [][2]int{{0, 1}, {3, 4}, {2, 5}}
	recall, precision := pairQuality(families, found, 1)
	if recall != 0.5 || math.Abs(precision-2.0/3) > 1e-12 {
		t.Errorf("recall %v precision %v, want 0.5 and 2/3", recall, precision)
	}
	both := append(found, [2]int{1, 0}, [2]int{4, 3}, [2]int{5, 2})
	if r, p := pairQuality(families, both, 2); r != recall || math.Abs(p-precision) > 1e-12 {
		t.Errorf("pairs seen from both sides score %v/%v, want %v/%v", r, p, recall, precision)
	}
}

// profile is what must not depend on the seed: the sorted family sizes and
// sequence lengths.
func profile(d *pastis.Dataset) (sizes, lengths []int) {
	bySize := map[int]int{}
	for i, f := range d.Families {
		bySize[f]++
		lengths = append(lengths, len(d.Records[i].Seq))
	}
	for f, n := range bySize {
		if f >= 0 {
			sizes = append(sizes, n)
		}
	}
	sort.Ints(sizes)
	return sizes, lengths
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	a, err := generate(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(200, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different datasets")
	}
	c, _ := generate(200, 8)
	if len(a.Records) != 200 || len(c.Records) != 200 {
		t.Fatalf("want exactly 200 records, got %d and %d", len(a.Records), len(c.Records))
	}
	if reflect.DeepEqual(a.Records, c.Records) {
		t.Error("two seeds gave the same records")
	}
	// The work profile is the same for every seed: family sizes exactly,
	// total residues within the few indels each member carries.
	sa, la := profile(a)
	sc, lc := profile(c)
	if !reflect.DeepEqual(sa, sc) {
		t.Errorf("family sizes differ across seeds: %v vs %v", sa, sc)
	}
	sum := func(xs []int) (s int) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	if ra, rc := sum(la), sum(lc); math.Abs(float64(ra-rc)) > 0.01*float64(ra) {
		t.Errorf("total residues differ by more than 1%%: %d vs %d", ra, rc)
	}
}

func TestCompareAgainstBounds(t *testing.T) {
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	file := func(scaleWall float64) resultFile {
		var f resultFile
		for _, w := range sp.Workloads {
			r := result{Correct: true, Attempted: 5, Metrics: map[string]value{}}
			for _, m := range sp.EndToEnd {
				r.Metrics[m.Name] = value{Value: 2, Unit: m.Unit}
			}
			r.Metrics["wall_s"] = value{Value: 2 * scaleWall, Unit: "s"}
			f.Results = append(f.Results, fileResult{w.Name, r})
		}
		return f
	}
	bound := 0.0
	for _, m := range sp.EndToEnd {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	var out bytes.Buffer
	if n := compareResults(sp, file(1), file(1), &out); n != 0 {
		t.Errorf("a file against itself: %d breaches\n%s", n, out.String())
	}
	if n := compareResults(sp, file(1), file(1+bound/2), &out); n != 0 {
		t.Errorf("slower by half the bound: %d breaches", n)
	}
	if n := compareResults(sp, file(1), file(1+2*bound), &out); n != len(sp.Workloads) {
		t.Errorf("slower by twice the bound on every workload: %d breaches, want %d", n, len(sp.Workloads))
	}
	if n := compareResults(sp, file(1+2*bound), file(1), &out); n != 0 {
		t.Errorf("getting faster is not a breach, got %d", n)
	}
	failed := file(1)
	failed.Results[0].Result.Failed = 1
	if n := compareResults(sp, file(1), failed, &out); n == 0 {
		t.Error("a failed op must count as a breach")
	}
}

// runSmoke runs one workload in process at smoke scale and parses the result
// line, which must be the last line of standard output.
func runSmoke(t *testing.T, workload string, trace bool, outDir string) result {
	t.Helper()
	flag := "0"
	if trace {
		flag = "1"
	}
	var stdout, stderr bytes.Buffer
	// The driver's argument form: double dashes, seconds given, trace as 0|1.
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", flag,
		"-scale", "smoke", "-outdir", outDir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s%s", workload, flag, code, stdout.String(), stderr.String())
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &raw); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("%s: result keys %v, want %v", workload, keys, want)
	}
	var res result
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmokeMatchesContract runs every workload traced and untraced at smoke
// scale — the whole harness, oracle included — and holds what it prints to
// BENCHMARK.json: the same workloads, and exactly the end-to-end metrics
// untraced and the per-layer metrics traced, names and units, both ways.
func TestSmokeMatchesContract(t *testing.T) {
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", sp.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var specWorkloads, codeWorkloads []string
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name+": "+w.Why)
		if strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	for _, w := range workloads {
		codeWorkloads = append(codeWorkloads, w.Name+": "+w.Why)
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
	if !reflect.DeepEqual(specWorkloads, codeWorkloads) {
		t.Errorf("workloads differ:\nBENCHMARK.json %q\ncode           %q", specWorkloads, codeWorkloads)
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	outDir := t.TempDir()
	for _, w := range workloads {
		for _, tc := range []struct {
			trace bool
			want  []specMetric
		}{{false, sp.EndToEnd}, {true, sp.PerLayer}} {
			res := runSmoke(t, w.Name, tc.trace, outDir)
			want := map[string]string{}
			for _, m := range tc.want {
				want[m.Name] = m.Unit
				if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
					t.Errorf("bad metric declaration %+v", m)
				}
			}
			got := map[string]string{}
			for n, v := range res.Metrics {
				got[n] = v.Unit
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, tc.trace, n, v.Value)
				}
				if !tc.trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, n, v.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				for n, u := range want {
					if got[n] != u {
						t.Errorf("%s trace=%v: BENCHMARK.json has %s [%s], run printed [%s]", w.Name, tc.trace, n, u, got[n])
					}
				}
				for n, u := range got {
					if _, ok := want[n]; !ok {
						t.Errorf("%s trace=%v: run printed %s [%s], not in BENCHMARK.json", w.Name, tc.trace, n, u)
					}
				}
			}
		}
	}
}
