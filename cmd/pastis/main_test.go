package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro"
)

// runMainEnv makes the test binary behave as the pastis command: TestMain
// calls main() instead of running tests, so a case can observe the exit
// status and the files of a real process without a go build in the test.
// The variable is inherited by the pastis-rank workers a -transport tcp
// run forks from this same binary.
const runMainEnv = "PASTIS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPastis runs the command in dir with args and returns its exit status
// and combined output.
func runPastis(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exitErr):
		return exitErr.ExitCode(), string(out)
	}
	t.Fatalf("pastis %s: %v", strings.Join(args, " "), err)
	return 0, ""
}

// writeInput leaves a small family-structured FASTA file in dir.
func writeInput(t *testing.T, dir string) string {
	t.Helper()
	data, err := pastis.GenerateScopeLike(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	fasta := filepath.Join(dir, "in.fa")
	f, err := os.Create(fasta)
	if err != nil {
		t.Fatal(err)
	}
	if err := pastis.WriteFASTA(f, data.Records, 60); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return fasta
}

func TestCLI(t *testing.T) {
	dir := t.TempDir()
	fasta := writeInput(t, dir)

	ranks := func(path string, n int) []string {
		var out []string
		for r := 0; r < n; r++ {
			out = append(out, fmt.Sprintf("%s.rank-%d", path, r))
		}
		return out
	}
	// Each case runs in a directory of its own; files lists what it must
	// leave there, non-empty.
	cases := []struct {
		name  string
		args  []string
		exit  int
		files []string
		says  string // when set, the output must contain it
	}{
		// os.Exit skips deferred calls: the profiles of a failed run were
		// lost (the heap profile never written, the CPU profile empty).
		{"failed run keeps its profiles",
			[]string{"-in", "missing.fa", "-cpuprofile", "c", "-memprofile", "m"},
			1, []string{"c", "m"}, ""},
		// A rank count that cannot form the grid was a panic in cluster
		// construction: exit status 2 and a goroutine dump.
		{"0 ranks", []string{"-in", fasta, "-nodes", "0"}, 1, nil, ""},
		{"0 ranks over tcp", []string{"-in", fasta, "-nodes", "0", "-transport", "tcp"}, 1, nil, ""},
		{"build-index on 0 ranks", []string{"build-index", "-in", fasta, "-index", "idx", "-nodes", "0"}, 1, nil, ""},
		// An index is built whole: -blocks only ever chose how A·S was formed.
		{"build-index takes no -blocks", []string{"build-index", "-in", fasta, "-index", "idx", "-nodes", "4", "-blocks", "2"},
			2, nil, "flag provided but not defined: -blocks"},
		{"unknown weight", []string{"-in", fasta, "-nodes", "4", "-weight", "bogus"}, 1, nil, `unknown -weight "bogus"`},
		{"query against a missing index", []string{"query", "-index", "no-such-index", "-in", fasta}, 1, nil, "no-such-index"},
		// A negative x-drop ran; one past the kernel's score range made the
		// banded kernel fill whole DP matrices with pruned cells.
		{"negative x-drop", []string{"-in", fasta, "-nodes", "4", "-xdrop", "-1"}, 1, nil, ""},
		{"x-drop beyond the score range", []string{"-in", fasta, "-nodes", "4", "-xdrop", "1000000000"}, 1, nil, ""},
		{"4 ranks",
			[]string{"-in", fasta, "-nodes", "4", "-out", "g.tsv", "-cpuprofile", "c", "-memprofile", "m"},
			0, []string{"c", "m", "g.tsv"}, ""},
		{"4 ranks over tcp, profiles per rank",
			[]string{"-in", fasta, "-nodes", "4", "-transport", "tcp", "-tcp-logdir", "logs",
				"-out", "g.tsv", "-cpuprofile", "c", "-memprofile", "m"},
			0, append(append(ranks("c", 4), ranks("m", 4)...), "g.tsv"), ""},
		{"failed tcp run keeps per-rank profiles",
			[]string{"-in", fasta, "-nodes", "4", "-transport", "tcp", "-tcp-logdir", "logs",
				"-align", "no-such-kernel", "-cpuprofile", "c", "-memprofile", "m"},
			1, append(ranks("c", 4), ranks("m", 4)...), ""},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			caseDir := filepath.Join(dir, fmt.Sprint(i))
			if err := os.Mkdir(caseDir, 0o755); err != nil {
				t.Fatal(err)
			}
			code, out := runPastis(t, caseDir, tc.args...)
			if code != tc.exit {
				t.Fatalf("exit status %d, want %d\n%s", code, tc.exit, out)
			}
			if !strings.Contains(out, tc.says) {
				t.Fatalf("output does not say %q\n%s", tc.says, out)
			}
			for _, name := range tc.files {
				st, err := os.Stat(filepath.Join(caseDir, name))
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				if st.Size() == 0 {
					t.Fatalf("%s is empty\n%s", name, out)
				}
			}
		})
	}
}

// The same dataset through -transport shared, codec and tcp (one OS process
// per rank) must leave byte-identical edge lists and the same analytic
// ledger: the transports differ in how bytes move, never in what is computed
// or billed.
func TestCLITransportsAgree(t *testing.T) {
	dir := t.TempDir()
	fasta := writeInput(t, dir)
	ledger := []string{"virtual time:", "bytes on wire:", "peak bytes:"}
	var refGraph []byte
	var refStats []string
	for _, transport := range []string{"shared", "codec", "tcp"} {
		caseDir := filepath.Join(dir, transport)
		if err := os.Mkdir(caseDir, 0o755); err != nil {
			t.Fatal(err)
		}
		code, out := runPastis(t, caseDir, "-in", fasta, "-nodes", "4", "-subs", "3", "-blocks", "2", "-threads", "2",
			"-transport", transport, "-tcp-logdir", "logs", "-stats", "-out", "g.tsv")
		if code != 0 {
			// The per-rank worker logs die with the temp dir: put them where
			// CI's upload of this test's output finds them.
			logs, _ := filepath.Glob(filepath.Join(caseDir, "logs", "*"))
			for _, path := range logs {
				text, _ := os.ReadFile(path)
				out += fmt.Sprintf("\n--- %s\n%s", filepath.Base(path), text)
			}
			t.Fatalf("-transport %s: exit status %d\n%s", transport, code, out)
		}
		graph, err := os.ReadFile(filepath.Join(caseDir, "g.tsv"))
		if err != nil || len(graph) == 0 {
			t.Fatalf("-transport %s: edge list: %d bytes, %v\n%s", transport, len(graph), err, out)
		}
		var stats []string
		for _, line := range strings.Split(out, "\n") {
			for _, prefix := range ledger {
				if strings.HasPrefix(line, prefix) {
					stats = append(stats, line)
				}
			}
		}
		if len(stats) != len(ledger) {
			t.Fatalf("-transport %s: -stats printed %d of the %d ledger lines\n%s", transport, len(stats), len(ledger), out)
		}
		if refGraph == nil {
			refGraph, refStats = graph, stats
			continue
		}
		if !bytes.Equal(graph, refGraph) {
			t.Errorf("-transport %s: edge list differs from -transport shared", transport)
		}
		if !slices.Equal(stats, refStats) {
			t.Errorf("-transport %s: ledger %q, -transport shared has %q", transport, stats, refStats)
		}
	}
}

// Every subcommand's flag names and defaults, as captured at the commit
// before the three hand-written flag sets became one table: the test fails
// when a flag appears, disappears or changes its default.
func TestCLIFlagSurface(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmd  command
		want string
	}{
		{"pastis", cmdAllVsAll, "align=xd blocks=1 checkpoint= ck=0 cpuprofile= in= k=6 mem=0 memprofile= " +
			"min-coverage=0.7 min-identity=0.3 nodes=16 out=- resume=false stats=false subs=0 tcp-logdir= " +
			"threads=1 transport=shared weight=ani xdrop=49"},
		{"pastis build-index", cmdBuildIndex,
			"in= index= k=6 maxfreq=0 nodes=16 stats=false subs=0 threads=1 transport=shared"},
		{"pastis query", cmdQuery, "align=xd blocks=1 ck=0 in= index= min-coverage=0.7 min-identity=0.3 " +
			"out=- stats=false threads=1 transport=shared weight=ani xdrop=49"},
	} {
		var got []string
		new(options).flagSet(tc.name, tc.cmd).VisitAll(func(f *flag.Flag) { // in name order
			got = append(got, f.Name+"="+f.DefValue)
		})
		if s := strings.Join(got, " "); s != tc.want {
			t.Errorf("%s flags:\n got %s\nwant %s", tc.name, s, tc.want)
		}
	}
}

// build-index then query, through the command: the hit list must not depend
// on -blocks or -transport, and — folded to unordered pairs of distinct
// sequences — must carry exactly the all-vs-all edge list's rows, number
// for number, in exact and substitute mode.
func TestCLIIndexQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fasta := writeInput(t, dir)
	// rows folds a TSV to "lo\thi" -> the numeric columns, dropping self-hits.
	rows := func(t *testing.T, path string) map[string]string {
		t.Helper()
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
			col := strings.SplitN(line, "\t", 3)
			if strings.HasPrefix(line, "#") || col[0] == col[1] {
				continue
			}
			key := min(col[0], col[1]) + "\t" + max(col[0], col[1])
			if prev, seen := out[key]; seen && prev != col[2] {
				t.Fatalf("%s: pair %q carries %q and %q", path, key, prev, col[2])
			}
			out[key] = col[2]
		}
		return out
	}
	// Substitute mode runs with the paper's common-k-mer prune, as
	// TestQueryMatchesAllVsAll does: without it this input has a pair whose
	// equal-score alignments differ by orientation (ROADMAP 1(b)).
	for _, mode := range []struct {
		name         string
		shape, align []string // build-index takes the first, query the second, all-vs-all both
	}{
		{"exact", nil, nil},
		{"subs 3", []string{"-subs", "3"}, []string{"-ck", "1"}},
	} {
		shape, align := mode.shape, mode.align
		t.Run(mode.name, func(t *testing.T) {
			caseDir := t.TempDir()
			run := func(args ...string) {
				t.Helper()
				if code, out := runPastis(t, caseDir, args...); code != 0 {
					t.Fatalf("pastis %s: exit status %d\n%s", strings.Join(args, " "), code, out)
				}
			}
			run(slices.Concat([]string{"-in", fasta, "-nodes", "4", "-out", "graph.tsv"}, shape, align)...)
			run(append([]string{"build-index", "-in", fasta, "-index", "idx", "-nodes", "4"}, shape...)...)
			var ref []byte
			for _, blocks := range []string{"1", "3"} {
				for _, transport := range []string{"shared", "codec"} {
					run(append([]string{"query", "-index", "idx", "-in", fasta, "-blocks", blocks, "-transport", transport,
						"-out", "hits.tsv"}, align...)...)
					hits, err := os.ReadFile(filepath.Join(caseDir, "hits.tsv"))
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = hits
					} else if !bytes.Equal(hits, ref) {
						t.Errorf("-blocks %s -transport %s: hit list differs from -blocks 1 -transport shared", blocks, transport)
					}
				}
			}
			got, want := rows(t, filepath.Join(caseDir, "hits.tsv")), rows(t, filepath.Join(caseDir, "graph.tsv"))
			if len(want) == 0 {
				t.Fatal("all-vs-all found no edges")
			}
			if len(got) != len(want) {
				t.Errorf("query hits fold to %d pairs, the all-vs-all graph has %d", len(got), len(want))
			}
			for pair, cols := range want {
				if got[pair] != cols {
					t.Errorf("pair %q: query says %q, all-vs-all says %q", pair, got[pair], cols)
				}
			}
			// The one -weight parser also guards the query path.
			if code, out := runPastis(t, caseDir, "query", "-index", "idx", "-in", fasta, "-weight", "bogus"); code != 1 ||
				!strings.Contains(out, `unknown -weight "bogus"`) {
				t.Errorf("query -weight bogus: exit status %d\n%s", code, out)
			}
		})
	}
}
