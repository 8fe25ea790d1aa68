package core

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/align"
	"repro/internal/mpi"
	"repro/internal/wire"
)

// Per-wave checkpoint/restart (ISSUE: fault-tolerant wave engine).
//
// The wave driver's merged state after wave k — the accumulated edges and
// counters of waves 0..k — is a pure function of (input, PSG-relevant
// config, sweep block count), so a rank can serialize it after each
// completed wave and a crashed run can restart from the newest wave every
// rank completed. Files are per-rank (`ckpt-r<rank>-w<wave>.ckpt`), written
// atomically (temp + rename), and pruned to the last two: collectives bound
// the wave skew between ranks to one, so the cluster-wide minimum of each
// rank's newest wave is always present on every rank.
//
// Restore is collective: ranks agree on min(newest complete wave) with one
// allreduce, then each loads its own file for exactly that wave. A
// fingerprint of the PSG-relevant configuration (and the input size) guards
// against resuming into a different run; knobs the PSG is oblivious to —
// threads, transport — are deliberately excluded, so a run may
// be resumed with different parallelism and still reproduce the same graph.
// The sweep's block count is NOT part of the fingerprint but IS recorded:
// wave indices are only meaningful at the split that produced them, so a
// resumed sweep runs at the checkpoint's block count regardless of
// Config.Blocks.

// ckptFormat makes a checkpoint a wire container under its own magic: the
// header, trailer checksum, exact-length decode, identity checks and atomic
// writer are the container's. Version 1 was a private layout under the same
// magic; version 2 is this layout, but its edges were aligned from seeds
// chosen before every Overlap lived in its pair's frame (types.go), and a
// resume must not splice them into a graph built from the seeds of today.
// The container rejects both by version, so an old file is simply not
// resumable and the run restarts in full.
var ckptFormat = wire.Format{Magic: "PASTISCK", Version: 3}

// checkpointer is a sweep's checkpoint policy: where its waves are saved,
// the run identity they are saved under, and — on a resumed run — the state
// to restart from.
type checkpointer struct {
	dir         string
	fingerprint uint64           // configFingerprint of this run
	resume      *checkpointState // nil: start at panel 0
}

// resolveResume sets c.resume to the state every rank can restart from.
// Each rank scans the directory for its newest valid checkpoint of this
// exact run, the cluster agrees on min(newest wave) — the deepest wave every
// rank completed; keep-2 pruning plus the one-wave collective skew guarantee
// each rank still holds a file for that wave — and each rank loads that
// wave. It stays nil, a full restart, when some rank has nothing to resume.
// Collective.
func (c *checkpointer) resolveResume(comm *mpi.Comm) error {
	ck := newestCheckpoint(c.dir, c.fingerprint, comm.Rank(), comm.Size())
	local := int64(-1)
	if ck != nil {
		local = int64(ck.Wave)
	}
	agreed, err := comm.TryAllreduceInt64("min", local)
	if err != nil || agreed < 0 {
		return err
	}
	if ck.Wave != int(agreed) {
		path := checkpointPath(c.dir, comm.Rank(), int(agreed))
		if ck, err = openCheckpoint(path, c.fingerprint, comm.Rank(), comm.Size()); err != nil {
			return fmt.Errorf("core: resume checkpoint: %w", err)
		}
	}
	// Every rank must resume the same split; checkpoints are cleared whenever
	// the split changes, so a mix means a torn directory.
	bmin, err := comm.TryAllreduceInt64("min", int64(ck.Blocks))
	if err != nil {
		return err
	}
	bmax, err := comm.TryAllreduceInt64("max", int64(ck.Blocks))
	if err != nil {
		return err
	}
	if bmin != bmax {
		return fmt.Errorf("core: checkpoint block splits disagree across ranks (%d vs %d)", bmin, bmax)
	}
	c.resume = ck
	return nil
}

// checkpointState is one rank's merged wave-driver state after wave Wave of
// a sweep split into Blocks panels.
type checkpointState struct {
	Wave      int // last completed panel index
	Blocks    int // the sweep's panel count (wave indices are relative to it)
	NnzB      int64
	NnzPruned int64
	Aligned   int64
	Cells     int64
	Stages    []align.StageStats
	Edges     []Edge
}

func checkpointPath(dir string, rank, wave int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-r%d-w%d.ckpt", rank, wave))
}

// Checkpoint meta keys (the wave driver's counters) and section names.
const (
	ckptBlocks    = "blocks"
	ckptWave      = "wave"
	ckptNnzB      = "nnzb"
	ckptNnzPruned = "nnzpruned"
	ckptAligned   = "aligned"
	ckptCells     = "cells"

	ckptSecStages = "stages"
	ckptSecEdges  = "edges"
)

// checkpointFile lays st out as a container file: counters in Meta, the
// per-stage alignment counters and the edges (GatherEdges' records) as
// sections.
func checkpointFile(fp uint64, rank, p int, st checkpointState) *wire.File {
	stages := wire.AppendU64(nil, uint64(len(st.Stages)))
	for _, sg := range st.Stages {
		stages = wire.AppendString(stages, sg.Name)
		stages = wire.AppendU64(stages, uint64(sg.Examined))
		stages = wire.AppendU64(stages, uint64(sg.Passed))
		stages = wire.AppendU64(stages, uint64(sg.Cells))
	}
	return &wire.File{
		Fingerprint: fp,
		Rank:        rank,
		Ranks:       p,
		Meta: map[string]uint64{
			ckptBlocks:    uint64(st.Blocks),
			ckptWave:      uint64(st.Wave),
			ckptNnzB:      uint64(st.NnzB),
			ckptNnzPruned: uint64(st.NnzPruned),
			ckptAligned:   uint64(st.Aligned),
			ckptCells:     uint64(st.Cells),
		},
		Sections: []wire.Section{
			{Name: ckptSecStages, Payload: stages},
			{Name: ckptSecEdges, Payload: appendEdges(nil, st.Edges)},
		},
	}
}

// checkpointFromFile is checkpointFile's inverse. It admits exactly that
// layout — the six counters, the two sections in order — so every file it
// accepts re-encodes byte for byte (FuzzCheckpointRoundTrip).
func checkpointFromFile(f *wire.File) (*checkpointState, error) {
	if len(f.Meta) != 6 || len(f.Sections) != 2 ||
		f.Sections[0].Name != ckptSecStages || f.Sections[1].Name != ckptSecEdges {
		return nil, fmt.Errorf("not a checkpoint layout: %d counters, sections %v", len(f.Meta), f.Sections)
	}
	for _, key := range []string{ckptBlocks, ckptWave, ckptNnzB, ckptNnzPruned, ckptAligned, ckptCells} {
		if _, ok := f.Meta[key]; !ok {
			return nil, fmt.Errorf("checkpoint counter %q missing", key)
		}
	}
	st := &checkpointState{
		Blocks:    int(f.Meta[ckptBlocks]),
		Wave:      int(f.Meta[ckptWave]),
		NnzB:      int64(f.Meta[ckptNnzB]),
		NnzPruned: int64(f.Meta[ckptNnzPruned]),
		Aligned:   int64(f.Meta[ckptAligned]),
		Cells:     int64(f.Meta[ckptCells]),
	}
	r := wire.NewReader(f.Sections[0].Payload)
	for i, n := 0, r.Count(32); i < n; i++ {
		st.Stages = append(st.Stages, align.StageStats{
			Name: r.String(), Examined: int64(r.U64()), Passed: int64(r.U64()), Cells: int64(r.U64()),
		})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("checkpoint stages: %w", err)
	}
	var err error
	if st.Edges, err = decodeEdges(nil, f.Sections[1].Payload); err != nil {
		return nil, fmt.Errorf("checkpoint edges: %w", err)
	}
	return st, nil
}

// openCheckpoint loads the checkpoint at path if it is this run's, this
// rank's, and intact.
func openCheckpoint(path string, fp uint64, rank, p int) (*checkpointState, error) {
	f, _, err := ckptFormat.Open(path, rank, p, fp)
	if err != nil {
		return nil, err
	}
	st, err := checkpointFromFile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// writeCheckpoint persists st atomically (the container's temp + rename)
// and prunes this rank's file from two waves back — the newest two always
// remain, which covers the one-wave skew collectives allow between ranks.
func writeCheckpoint(dir string, fp uint64, rank, p int, st checkpointState) error {
	if _, err := ckptFormat.Save(checkpointPath(dir, rank, st.Wave), checkpointFile(fp, rank, p, st)); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if st.Wave >= 2 {
		_ = os.Remove(checkpointPath(dir, rank, st.Wave-2))
	}
	return nil
}

// checkpointPaths lists this rank's checkpoint files in dir, every wave. A
// dir that is not a valid glob pattern lists nothing: no resume, nothing to
// clear.
func checkpointPaths(dir string, rank int) []string {
	paths, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("ckpt-r%d-w*.ckpt", rank)))
	return paths
}

// newestCheckpoint scans dir for this rank's valid checkpoints of this run
// and returns the one with the highest wave, or nil if none load.
func newestCheckpoint(dir string, fp uint64, rank, p int) *checkpointState {
	var best *checkpointState
	for _, path := range checkpointPaths(dir, rank) {
		st, err := openCheckpoint(path, fp, rank, p)
		if err != nil {
			continue // torn, stale, foreign or old-format file: not resumable
		}
		if best == nil || st.Wave > best.Wave {
			best = st
		}
	}
	return best
}

// clearCheckpoints removes this rank's checkpoint files — called when a
// sweep restarts at a different block split (old wave indices are
// meaningless at the new split) and after a successful run.
func clearCheckpoints(dir string, rank int) {
	for _, path := range checkpointPaths(dir, rank) {
		_ = os.Remove(path)
	}
}
