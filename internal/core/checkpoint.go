package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/align"
	"repro/internal/mpi"
	"repro/internal/spmat"
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
// threads, batch size, transport — are deliberately excluded, so a run may
// be resumed with different parallelism and still reproduce the same graph.
// The sweep's block count is NOT part of the fingerprint but IS recorded:
// wave indices are only meaningful at the split that produced them, so a
// resumed sweep runs at the checkpoint's block count regardless of
// Config.Blocks.

const (
	ckptMagic   = "PASTISCK"
	ckptVersion = 1
)

const (
	ckptFNVOffset = 14695981039346656037
	ckptFNVPrime  = 1099511628211
)

func ckptChecksum(b []byte) uint64 {
	h := uint64(ckptFNVOffset)
	for len(b) >= 8 {
		h = (h ^ getU64b(b)) * ckptFNVPrime
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = (h ^ getU64b(tail[:])) * ckptFNVPrime
	}
	return h
}

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
		ck, err = loadCheckpointWave(c.dir, c.fingerprint, comm.Rank(), comm.Size(), int(agreed))
		if err != nil {
			return err
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

// encodeCheckpoint renders the state with header, fingerprint and trailer
// checksum. Edges use the same 56-byte records as GatherEdges.
func encodeCheckpoint(fp uint64, rank, p int, st checkpointState) []byte {
	buf := []byte(ckptMagic)
	buf = appendU64b(buf, ckptVersion)
	buf = appendU64b(buf, fp)
	buf = appendU64b(buf, uint64(rank))
	buf = appendU64b(buf, uint64(p))
	buf = appendU64b(buf, uint64(st.Blocks))
	buf = appendU64b(buf, uint64(st.Wave))
	buf = appendU64b(buf, uint64(st.NnzB))
	buf = appendU64b(buf, uint64(st.NnzPruned))
	buf = appendU64b(buf, uint64(st.Aligned))
	buf = appendU64b(buf, uint64(st.Cells))
	buf = appendU64b(buf, uint64(len(st.Stages)))
	for _, sg := range st.Stages {
		buf = appendU64b(buf, uint64(len(sg.Name)))
		buf = append(buf, sg.Name...)
		buf = appendU64b(buf, uint64(sg.Examined))
		buf = appendU64b(buf, uint64(sg.Passed))
		buf = appendU64b(buf, uint64(sg.Cells))
	}
	buf = appendU64b(buf, uint64(len(st.Edges)))
	for _, e := range st.Edges {
		buf = appendU64b(buf, uint64(e.R))
		buf = appendU64b(buf, uint64(e.C))
		buf = appendF64(buf, e.Weight)
		buf = appendF64(buf, e.Ident)
		buf = appendF64(buf, e.Cov)
		buf = appendF64(buf, e.NS)
		buf = appendU64b(buf, uint64(int64(e.Score)))
	}
	return appendU64b(buf, ckptChecksum(buf))
}

// ckptReader walks an encoded checkpoint with bounds checking; any
// truncation surfaces as an error naming the offset rather than a panic
// (checkpoint files arrive from disk and may be torn).
type ckptReader struct {
	buf []byte
	off int
	err error
}

func (r *ckptReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.err = fmt.Errorf("truncated at offset %d", r.off)
		return 0
	}
	v := getU64b(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *ckptReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.err = fmt.Errorf("truncated at offset %d", r.off)
		return 0
	}
	v := getF64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *ckptReader) str(n uint64) string {
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("string of %d bytes at offset %d overruns buffer", n, r.off)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func decodeCheckpoint(buf []byte, fp uint64, rank, p int) (*checkpointState, error) {
	if len(buf) < len(ckptMagic)+16 || string(buf[:len(ckptMagic)]) != ckptMagic {
		return nil, errors.New("not a checkpoint file")
	}
	stored := getU64b(buf[len(buf)-8:])
	if got := ckptChecksum(buf[:len(buf)-8]); stored != got {
		return nil, fmt.Errorf("checksum mismatch (stored %#x, computed %#x)", stored, got)
	}
	r := &ckptReader{buf: buf[:len(buf)-8], off: len(ckptMagic)}
	if v := r.u64(); v != ckptVersion {
		return nil, fmt.Errorf("version %d, want %d", v, ckptVersion)
	}
	if f := r.u64(); f != fp {
		return nil, fmt.Errorf("fingerprint %#x does not match this run's %#x (different input or config)", f, fp)
	}
	if rk := r.u64(); rk != uint64(rank) {
		return nil, fmt.Errorf("written by rank %d, loaded on rank %d", rk, rank)
	}
	if np := r.u64(); np != uint64(p) {
		return nil, fmt.Errorf("written on %d ranks, resuming on %d", np, p)
	}
	st := &checkpointState{
		Blocks:    int(r.u64()),
		Wave:      int(r.u64()),
		NnzB:      int64(r.u64()),
		NnzPruned: int64(r.u64()),
		Aligned:   int64(r.u64()),
		Cells:     int64(r.u64()),
	}
	nstages := r.u64()
	if r.err == nil && nstages > uint64(len(buf)) {
		return nil, fmt.Errorf("implausible stage count %d", nstages)
	}
	for i := uint64(0); i < nstages && r.err == nil; i++ {
		var sg align.StageStats
		sg.Name = r.str(r.u64())
		sg.Examined = int64(r.u64())
		sg.Passed = int64(r.u64())
		sg.Cells = int64(r.u64())
		st.Stages = append(st.Stages, sg)
	}
	nedges := r.u64()
	if r.err == nil && nedges > uint64(len(buf)) {
		return nil, fmt.Errorf("implausible edge count %d", nedges)
	}
	if r.err == nil {
		st.Edges = make([]Edge, 0, nedges)
	}
	for i := uint64(0); i < nedges && r.err == nil; i++ {
		e := Edge{
			R:      spmat.Index(r.u64()),
			C:      spmat.Index(r.u64()),
			Weight: r.f64(),
			Ident:  r.f64(),
			Cov:    r.f64(),
			NS:     r.f64(),
			Score:  int(int64(r.u64())),
		}
		st.Edges = append(st.Edges, e)
	}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

// writeCheckpoint persists st atomically (temp file + rename into place)
// and prunes this rank's file from two waves back — the newest two always
// remain, which covers the one-wave skew collectives allow between ranks.
func writeCheckpoint(dir string, fp uint64, rank, p int, st checkpointState) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	final := checkpointPath(dir, rank, st.Wave)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, encodeCheckpoint(fp, rank, p, st), 0o644); err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("core: checkpoint rename: %w", err)
	}
	if st.Wave >= 2 {
		_ = os.Remove(checkpointPath(dir, rank, st.Wave-2))
	}
	return nil
}

// newestCheckpoint scans dir for this rank's valid checkpoints of this run
// and returns the one with the highest wave, or nil if none load.
func newestCheckpoint(dir string, fp uint64, rank, p int) *checkpointState {
	pattern := filepath.Join(dir, fmt.Sprintf("ckpt-r%d-w*.ckpt", rank))
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil
	}
	var best *checkpointState
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		st, err := decodeCheckpoint(buf, fp, rank, p)
		if err != nil {
			continue // torn, stale or foreign file: not resumable
		}
		if best == nil || st.Wave > best.Wave {
			best = st
		}
	}
	return best
}

// loadCheckpointWave loads this rank's checkpoint for exactly the given
// wave (the cluster-agreed resume point).
func loadCheckpointWave(dir string, fp uint64, rank, p, wave int) (*checkpointState, error) {
	buf, err := os.ReadFile(checkpointPath(dir, rank, wave))
	if err != nil {
		return nil, fmt.Errorf("core: resume checkpoint: %w", err)
	}
	st, err := decodeCheckpoint(buf, fp, rank, p)
	if err != nil {
		return nil, fmt.Errorf("core: resume checkpoint %s: %w", checkpointPath(dir, rank, wave), err)
	}
	return st, nil
}

// clearCheckpoints removes this rank's checkpoint files — called when a
// sweep restarts at a different block split (old wave indices are
// meaningless at the new split) and after a successful run.
func clearCheckpoints(dir string, rank int) {
	pattern := filepath.Join(dir, fmt.Sprintf("ckpt-r%d-w*.ckpt", rank))
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return
	}
	for _, path := range paths {
		_ = os.Remove(path)
	}
}
