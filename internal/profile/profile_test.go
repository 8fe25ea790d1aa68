package profile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
	// A second stop — the deferred call after an exit path already ran it —
	// does nothing: the files are not rewritten.
	if err := os.Remove(mem); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mem); !os.IsNotExist(err) {
		t.Fatalf("second stop rewrote %s (stat error %v)", mem, err)
	}
}
