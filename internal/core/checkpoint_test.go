package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/spmat"
	"repro/internal/testutil"
	"repro/internal/wire"
)

func sampleCheckpoint() checkpointState {
	return checkpointState{
		Wave: 2, Blocks: 4, NnzB: 10, NnzPruned: 7, Aligned: 5, Cells: 1234,
		Stages: []align.StageStats{{Name: "ug", Examined: 5, Passed: 3, Cells: 1000}, {Name: "wfa", Examined: 3, Passed: 2, Cells: 234}},
		Edges: []Edge{
			{R: 1, C: 2, Weight: 0.5, Ident: 0.75, Cov: 0.9, NS: 1.25, Score: 42},
			{R: 3, C: 9, Weight: 1, Ident: 1, Cov: 1, NS: 2.5, Score: -7},
		},
	}
}

// reencodeCheckpoint decodes buf as a checkpoint of any run and renders what
// it accepted again: the identity the hardening harness and the fuzz target
// hold the format to.
func reencodeCheckpoint(buf []byte) ([]byte, error) {
	f, err := ckptFormat.Decode(buf)
	if err != nil {
		return nil, err
	}
	st, err := checkpointFromFile(f)
	if err != nil {
		return nil, err
	}
	return ckptFormat.Encode(checkpointFile(f.Fingerprint, f.Rank, f.Ranks, *st)), nil
}

// The container under the checkpoint magic, through the state mapping.
func TestCheckpointHardening(t *testing.T) {
	for _, st := range []checkpointState{sampleCheckpoint(), {Blocks: 1}} {
		testutil.Hardening(t, ckptFormat.Encode(checkpointFile(0xfeedbeef, 3, 4, st)), reencodeCheckpoint)
	}
}

func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(ckptFormat.Magic))
	f.Add(ckptFormat.Encode(checkpointFile(1, 0, 1, checkpointState{})))
	f.Add(ckptFormat.Encode(checkpointFile(0xfeedbeef, 3, 4, sampleCheckpoint())))
	f.Add(goldenV1Checkpoint(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		re, err := reencodeCheckpoint(data)
		if err != nil {
			return // rejected cleanly: fine
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted checkpoint does not round-trip: %d bytes in, %d bytes out", len(data), len(re))
		}
	})
}

// A checkpoint whose sections hold more than their counts admit — a stage
// record past the stage count, stray bytes after the last edge record, bytes
// after the last section — is not the writer's image even when every
// checksum is valid, and must not load as a shorter state. (The v1 decoder
// never checked that its cursor reached the end.)
func TestCheckpointRejectsUndercountedSections(t *testing.T) {
	const fp = uint64(0xfeedbeef)
	file := func() *wire.File { return checkpointFile(fp, 0, 1, sampleCheckpoint()) }
	cases := map[string][]byte{}

	f := file()
	stages := f.Sections[0].Payload
	wire.PutU64(stages, 1) // count 1 of the 2 records present
	cases["undercounted stages"] = ckptFormat.Encode(f)

	f = file()
	f.Sections[1].Payload = append(f.Sections[1].Payload, make([]byte, 8)...)
	cases["stray bytes after the last edge"] = ckptFormat.Encode(f)

	f = file()
	f.Sections[1].Payload = append(f.Sections[1].Payload, make([]byte, 4)...)
	cases["half a word after the last edge"] = ckptFormat.Encode(f)

	f = file()
	f.Sections = append(f.Sections, wire.Section{Name: "more"})
	cases["third section"] = ckptFormat.Encode(f)

	f = file()
	delete(f.Meta, ckptCells)
	f.Meta["cellz"] = 1
	cases["renamed counter"] = ckptFormat.Encode(f)

	full := ckptFormat.Encode(file())
	forged := append(bytes.Clone(full[:len(full)-8]), 0xab)
	cases["bytes after the last section, re-checksummed"] = wire.AppendU64(forged, wire.Checksum(wire.ChecksumInit, forged))

	for name, enc := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(checkpointPath(dir, 0, 2), enc, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := newestCheckpoint(dir, fp, 0, 1); got != nil {
			t.Errorf("%s: loaded as %+v", name, got)
		}
		if _, err := openCheckpoint(checkpointPath(dir, 0, 2), fp, 0, 1); err == nil {
			t.Errorf("%s: openCheckpoint accepted it", name)
		}
	}
	// The untouched file does load — the cases above fail for their defect.
	dir := t.TempDir()
	if err := os.WriteFile(checkpointPath(dir, 0, 2), full, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := newestCheckpoint(dir, fp, 0, 1); got == nil || len(got.Stages) != 2 || len(got.Edges) != 2 {
		t.Fatalf("valid checkpoint did not load: %+v", got)
	}
}

// The edge-record decoder, bare (as GatherEdges hands it a peer's payload and
// the checkpoint its edges section): every length that is not a whole number
// of 56-byte records is an error, never a hang — word-aligned or not.
func TestDecodeEdgesRejectsPartialRecords(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	edges := sampleCheckpoint().Edges
	enc := appendEdges(nil, edges)
	for cut := 0; cut <= len(enc); cut++ {
		got, err := decodeEdges(nil, enc[:cut:cut])
		if (err == nil) != (cut%56 == 0) {
			t.Fatalf("decodeEdges over %d bytes: err %v", cut, err)
		}
		if err == nil && !slices.Equal(got, edges[:cut/56]) {
			t.Fatalf("decodeEdges over %d bytes: %+v", cut, got)
		}
	}
	for _, n := range []int{4, 60} {
		if _, err := decodeEdges(nil, make([]byte, n)); err == nil {
			t.Errorf("decodeEdges accepted %d zero bytes", n)
		}
	}
}

// goldenV1Checkpoint is a version-1 checkpoint exactly as the commit before
// the container port wrote it: encodeCheckpoint(0xfeedbeef, rank 0 of 1,
// wave 2 of 4 blocks, one "ug" stage, one edge (1,2)).
func goldenV1Checkpoint(t testing.TB) []byte {
	t.Helper()
	raw, err := hex.DecodeString("" +
		"504153544953434b0100000000000000efbeedfe0000000000000000000000000100000000000000" +
		"040000000000000002000000000000000a0000000000000007000000000000000500000000000000" +
		"d2040000000000000100000000000000020000000000000075670500000000000000030000000000" +
		"0000e803000000000000010000000000000001000000000000000200000000000000000000000000" +
		"e03f000000000000e83fcdccccccccccec3f000000000000f43f2a00000000000000ac949d35b34a" +
		"aae2")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// An old-format checkpoint is not resumable — v1, a private layout; v2,
// today's layout holding edges aligned from pre-frame seeds; or v3, today's
// layout whose nonzero counters counted whole panels, not owned pairs: the
// scan skips it, a direct load names the version, and a -resume run over a
// directory holding only such files of this very run restarts in full — same
// graph, same Stats, no panic, nothing of the old file's state blended in.
func TestCheckpointV1Skipped(t *testing.T) {
	golden := goldenV1Checkpoint(t)
	v2 := wire.Format{Magic: ckptFormat.Magic, Version: 2}
	v3 := wire.Format{Magic: ckptFormat.Magic, Version: 3}
	bogus := checkpointState{Wave: 2, Blocks: 4, Aligned: 5, Cells: 1234,
		Edges: []Edge{{R: 1, C: 2, Weight: 0.5, Ident: 0.75, Cov: 0.9, NS: 1.25, Score: 42}}}
	// A v3 file's counters: every nonzero of its panels, self pairs and
	// mirrored pairs included.
	wholePanels := bogus
	wholePanels.NnzB, wholePanels.NnzPruned = 977, 531
	data := familyDataset(t, 4, 71)
	cfg := DefaultConfig()
	cfg.Blocks = 4
	ref, err := runChaosPipeline(data.Records, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := configFingerprint(cfg, 1, spmat.Index(len(data.Records)))
	for _, old := range []struct {
		version string
		// file renders the stale checkpoint addressed to run fp, so only the
		// version stands between it and a resume from wave 2 with a bogus edge.
		file func(fp uint64) []byte
	}{
		{"version 1", func(fp uint64) []byte {
			// v1 sealed files with the same checksum function.
			mine := bytes.Clone(golden[:len(golden)-8])
			wire.PutU64(mine[16:], fp)
			return wire.AppendU64(mine, wire.Checksum(wire.ChecksumInit, mine))
		}},
		{"version 2", func(fp uint64) []byte { return v2.Encode(checkpointFile(fp, 0, 1, bogus)) }},
		{"version 3", func(fp uint64) []byte { return v3.Encode(checkpointFile(fp, 0, 1, wholePanels)) }},
	} {
		dir := t.TempDir()
		path := checkpointPath(dir, 0, 2)
		if err := os.WriteFile(path, old.file(0xfeedbeef), 0o644); err != nil {
			t.Fatal(err)
		}
		if got := newestCheckpoint(dir, 0xfeedbeef, 0, 1); got != nil {
			t.Fatalf("%s checkpoint loaded: %+v", old.version, got)
		}
		if _, err := openCheckpoint(path, 0xfeedbeef, 0, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%s, want %d", old.version, ckptFormat.Version)) {
			t.Fatalf("%s checkpoint: error %v does not name the version", old.version, err)
		}

		if err := os.WriteFile(path, old.file(fp), 0o644); err != nil {
			t.Fatal(err)
		}
		resumed := cfg
		resumed.CheckpointDir = dir
		resumed.Resume = true
		got, err := runChaosPipeline(data.Records, 1, resumed)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, "resume over a "+old.version+" checkpoint", got, ref)
	}
}
