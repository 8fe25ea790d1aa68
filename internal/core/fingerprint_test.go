package core

import (
	"reflect"
	"testing"
)

// Every Config field must be classified exactly once: a new knob that the
// table does not name would silently miss a fingerprint and resume into the
// wrong run or serve stale cache hits.
func TestConfigFieldsClassified(t *testing.T) {
	classified := map[string]int{}
	for _, f := range configFields {
		classified[f.name]++
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if classified[name] != 1 {
			t.Errorf("Config.%s appears %d times in configFields, want 1: classify it as index-shape, PSG-determining or machine-only",
				name, classified[name])
		}
		delete(classified, name)
	}
	for name := range classified {
		t.Errorf("configFields names %q, which is not a Config field", name)
	}
}

// The fingerprints are on disk (checkpoints, indexes): deriving them from
// the table must not move their bytes. The index goldens come from the
// hand-written hash functions the table replaced and have never moved. The
// run-identity goldens moved once, when the UseHeapKernel row (a kernel
// switch that could not change the graph) left the table with its Config
// field: a checkpoint written before that fails the fingerprint check and
// the run restarts in full.
func TestFingerprintLayoutPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubstituteKmers = 5
	cfg.Align = "ug+wfa"
	cfg.Weight = WeightNS
	cfg.CommonKmerThreshold = 3
	cfg.MaxKmerFrequency = 9
	cfg.NaiveTriangle = true
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"config", configFingerprint(cfg, 4, 163), 0xbf427c20e3f87a81},
		{"index", IndexFingerprint(cfg, 4), 0xde7cb75e4eb8a355},
		{"default config", configFingerprint(DefaultConfig(), 9, 1000), 0x38278d586d8d4bb5},
		{"default index", IndexFingerprint(DefaultConfig(), 9), 0x9bad34b9ef763e96},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint %#x, want %#x (existing artifacts would be invalidated)", tc.name, tc.got, tc.want)
		}
	}
}

// Machine-only knobs must not move any identity; every other class must.
func TestFingerprintClasses(t *testing.T) {
	base := DefaultConfig()
	machine := base
	machine.Threads, machine.Blocks, machine.Transport, machine.MemBudget = 8, 4, "codec", 1<<20
	if PSGKey(machine) != PSGKey(base) || configFingerprint(machine, 4, 10) != configFingerprint(base, 4, 10) ||
		IndexFingerprint(machine, 4) != IndexFingerprint(base, 4) {
		t.Error("machine-only knobs moved a fingerprint")
	}
	psg := base
	psg.MinIdentity = 0.9
	if PSGKey(psg) == PSGKey(base) || configFingerprint(psg, 4, 10) == configFingerprint(base, 4, 10) {
		t.Error("a PSG-determining knob left the run identity unchanged")
	}
	if IndexFingerprint(psg, 4) != IndexFingerprint(base, 4) {
		t.Error("a query-time knob moved the index fingerprint")
	}
	shape := base
	shape.K = 5
	if IndexFingerprint(shape, 4) == IndexFingerprint(base, 4) || PSGKey(shape) == PSGKey(base) {
		t.Error("an index-shape knob left a fingerprint unchanged")
	}
}
