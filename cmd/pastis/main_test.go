package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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

func TestCLI(t *testing.T) {
	dir := t.TempDir()
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
	}{
		// os.Exit skips deferred calls: the profiles of a failed run were
		// lost (the heap profile never written, the CPU profile empty).
		{"failed run keeps its profiles",
			[]string{"-in", "missing.fa", "-cpuprofile", "c", "-memprofile", "m"},
			1, []string{"c", "m"}},
		{"4 ranks",
			[]string{"-in", fasta, "-nodes", "4", "-out", "g.tsv", "-cpuprofile", "c", "-memprofile", "m"},
			0, []string{"c", "m", "g.tsv"}},
		{"4 ranks over tcp, profiles per rank",
			[]string{"-in", fasta, "-nodes", "4", "-transport", "tcp", "-tcp-logdir", "logs",
				"-out", "g.tsv", "-cpuprofile", "c", "-memprofile", "m"},
			0, append(append(ranks("c", 4), ranks("m", 4)...), "g.tsv")},
		{"failed tcp run keeps per-rank profiles",
			[]string{"-in", fasta, "-nodes", "4", "-transport", "tcp", "-tcp-logdir", "logs",
				"-align", "no-such-kernel", "-cpuprofile", "c", "-memprofile", "m"},
			1, append(ranks("c", 4), ranks("m", 4)...)},
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
