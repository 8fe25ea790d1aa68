// Fault injection and retry: the chaos layer of the transport.
//
// A FaultPlan armed on a Cluster turns the Try* communication methods into
// a fault-injecting decorator around whichever API (byte or typed) and
// backend the caller uses. Faults are drawn from a deterministic
// hash of (seed, communicator id, collective sequence number) — a pure
// function every rank can evaluate without communicating — so all ranks of
// a communicator always agree on each collective's verdict, retry together,
// and keep their rendezvous sequence numbers in lockstep. The same
// determinism makes chaos runs exactly reproducible: one seed, one fault
// schedule, one retry schedule, one final clock state.
//
// Verdicts:
//
//   - drop: the attempt's traffic is lost in flight. The attempt still runs
//     (the simulated wire carried the bytes), its result is discarded, the
//     re-sent bytes are tallied in the retry ledger, and every rank backs
//     off exponentially (seeded jitter) before trying again.
//   - corrupt: the payload arrives but fails its checksum (the codec wire
//     format carries one; see dmat). Detection and recovery cost the same
//     as a drop — the attempt is wasted and retried — but is counted
//     separately.
//   - delay: the collective succeeds; the clock is charged one backoff step
//     of extra latency under the retry section.
//   - crash: a one-shot, per-rank event from FaultPlan.RankCrash — the
//     rank's Nth decorated collective aborts the whole cluster with
//     ErrRankCrashed, modeling a node failure. Peers blocked in rendezvous
//     wake with the abort cause instead of deadlocking.
//
// Retry cost is charged honestly: backoff time and re-sent bytes go to the
// virtual clock like any other traffic, but under the SectionRetry ledger
// key and the retry-bytes counter, so Summary.BytesOnWire - RetryBytes and
// the non-retry sections of a faulty run are bit-identical to a fault-free run
// — the invariant TestChaosBitIdentical enforces.
//
// With no plan armed (or a zero plan), every Try* method is a direct call
// to the underlying primitive: the decorator costs nothing on the fault-free
// hot path, in wall-clock or virtual time.
package mpi

import (
	"errors"
	"fmt"
)

// Sentinel errors of the fault/abort machinery. Wrapped causes unwrap to
// these, so callers match with errors.Is.
var (
	// ErrAborted is the generic cluster-abort cause (a rank failed).
	ErrAborted = errors.New("mpi: cluster aborted")
	// ErrInterrupted is the abort cause installed by Cluster.Interrupt
	// (e.g. the SIGINT handler): drain, checkpoint, exit.
	ErrInterrupted = errors.New("mpi: interrupted")
	// ErrRankCrashed is the abort cause of an injected one-shot rank crash.
	ErrRankCrashed = errors.New("mpi: rank crashed (injected fault)")
	// ErrRetriesExhausted aborts the cluster when a collective keeps drawing
	// drop/corrupt verdicts past the plan's retry budget.
	ErrRetriesExhausted = errors.New("mpi: retries exhausted")
)

// SectionRetry is the clock-section name charged with all fault-recovery
// cost: wasted attempt time, backoff delays, and injected latency.
const SectionRetry = "retry"

// DefaultMaxRetries bounds the retry loop when FaultPlan.MaxRetries is 0.
const DefaultMaxRetries = 8

// FaultPlan describes a deterministic chaos schedule. Probabilities are per
// attempt and independent; they are consulted through a hash of the plan
// seed and the operation's (communicator, sequence) coordinates, never a
// live RNG, so two runs with the same plan see the same faults.
type FaultPlan struct {
	Seed        int64
	DropProb    float64
	CorruptProb float64
	DelayProb   float64
	// RankCrash maps a world rank to the ordinal (1-based) of the decorated
	// collective at which that rank crashes, once.
	RankCrash map[int]int
	// MaxRetries caps attempts per collective; 0 means DefaultMaxRetries.
	MaxRetries int
}

// active reports whether the plan can inject anything. A zero plan is
// inactive: arming it is an identity, which TestTransportBackendsEquivalent
// proves by running it as a third backend.
func (p FaultPlan) active() bool {
	return p.DropProb > 0 || p.CorruptProb > 0 || p.DelayProb > 0 || len(p.RankCrash) > 0
}

// FaultStats counts injected events, per rank (Summary.Faults sums them).
type FaultStats struct {
	Drops    int64 // collective attempts lost in flight
	Corrupts int64 // collective attempts failing checksum
	Delays   int64 // collectives charged injected latency
	Crashes  int64 // one-shot rank crashes fired
	Gates    int64 // decorated collective passes (attempts not included)
	P2PDrops int64 // point-to-point send attempts lost
}

// faultInjector is the per-cluster decorator state. All mutable fields are
// per-world-rank slices indexed only by their own rank's goroutine, so no
// locking is needed; Cluster.Summary reads them all after Run returns.
type faultInjector struct {
	plan       FaultPlan
	maxRetries int
	gates      []uint64 // per-rank count of decorated collectives entered
	fired      []bool   // per-rank one-shot crash latch
	stats      []FaultStats
}

// ArmFaults installs a fault plan on the cluster. Call before Run; arming a
// zero plan (or nil-equivalent) leaves the hot path untouched. Returns the
// cluster for chaining.
func (cl *Cluster) ArmFaults(plan FaultPlan) *Cluster {
	max := plan.MaxRetries
	if max <= 0 {
		max = DefaultMaxRetries
	}
	cl.faults = &faultInjector{
		plan:       plan,
		maxRetries: max,
		gates:      make([]uint64, cl.size),
		fired:      make([]bool, cl.size),
		stats:      make([]FaultStats, cl.size),
	}
	return cl
}

// --- deterministic hashing ---

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// salts separating the collective and point-to-point verdict streams.
const (
	saltColl = 0xc011ec71
	saltP2P  = 0x5e4dba11
)

// collKeyHash derives the verdict key for a collective: identical on every
// rank of the communicator (no rank term), unique per (seed, comm, seq).
func collKeyHash(seed int64, comm, seq uint64) uint64 {
	h := splitmix64(uint64(seed) ^ saltColl)
	h = splitmix64(h ^ comm)
	return splitmix64(h ^ seq)
}

// p2pKeyHash derives the verdict key for a point-to-point send: per-sender
// (world rank term), so senders fault independently.
func p2pKeyHash(seed int64, comm uint64, world int, seq uint64) uint64 {
	h := splitmix64(uint64(seed) ^ saltP2P)
	h = splitmix64(h ^ comm)
	h = splitmix64(h ^ uint64(world+1))
	return splitmix64(h ^ seq)
}

// unitFloat maps a hash to [0, 1) with 53 bits of precision.
func unitFloat(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

type faultVerdict int

const (
	faultNone faultVerdict = iota
	faultDrop
	faultCorrupt
	faultDelay
)

// verdict rolls the plan's probabilities against the key's unit float.
func (p FaultPlan) verdict(key uint64) faultVerdict {
	u := unitFloat(key)
	if u < p.DropProb {
		return faultDrop
	}
	if u < p.DropProb+p.CorruptProb {
		return faultCorrupt
	}
	if u < p.DropProb+p.CorruptProb+p.DelayProb {
		return faultDelay
	}
	return faultNone
}

// RetryBackoff returns the deterministic backoff delay (virtual seconds)
// charged after a failed attempt: a base of 32*alpha doubling per attempt,
// plus up to half a step of jitter drawn from the attempt's key. Exported
// so tests can pin the schedule for a fixed seed
// (TestRetryBackoffDeterministic).
func RetryBackoff(key uint64, attempt int, alpha float64) float64 {
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 30 {
		attempt = 30
	}
	step := 32 * alpha * float64(uint64(1)<<uint(attempt))
	jitter := unitFloat(splitmix64(key^uint64(attempt)+1)) * 0.5 * step
	return step + jitter
}

// --- the decorator ---

// withFaults wraps one collective operation (run performs exactly one
// rendezvous) in the injector's verdict/retry loop and returns the result of
// the attempt that stood. With no active plan it is a direct call.
func withFaults[T any](c *Comm, run func() (T, error)) (out T, err error) {
	inj := c.cluster.faults
	if inj == nil || !inj.plan.active() {
		return run()
	}
	err = inj.collective(c, func() error {
		out, err = run()
		return err
	})
	return out, err
}

func (inj *faultInjector) collective(c *Comm, run func() error) error {
	w := c.world
	st := &inj.stats[w]
	inj.gates[w]++
	st.Gates++
	// One-shot injected crash: modeled at the collective boundary, where a
	// real rank failure would surface as peers time out in the rendezvous.
	if n, ok := inj.plan.RankCrash[w]; ok && !inj.fired[w] && inj.gates[w] >= uint64(n) {
		inj.fired[w] = true
		st.Crashes++
		err := fmt.Errorf("%w: world rank %d at collective %d", ErrRankCrashed, w, inj.gates[w])
		c.cluster.abort(err)
		return err
	}
	alpha := c.cluster.model.Alpha
	for attempt := 0; ; attempt++ {
		// The verdict is keyed on the sequence number the underlying
		// rendezvous is about to use, so every rank (same comm, same seq)
		// draws the same verdict — and each retry, having consumed a
		// sequence number, draws a fresh one.
		key := collKeyHash(inj.plan.Seed, c.id, *c.collSeq+1)
		switch inj.plan.verdict(key) {
		case faultNone:
			return run()
		case faultDelay:
			if err := run(); err != nil {
				return err
			}
			st.Delays++
			c.clock.StartSection(SectionRetry)
			c.clock.Advance(RetryBackoff(key, 0, alpha))
			c.clock.EndSection()
			return nil
		case faultDrop, faultCorrupt:
			if attempt >= inj.maxRetries {
				err := fmt.Errorf("%w: %d attempts on comm %d (seed %d)",
					ErrRetriesExhausted, attempt, c.id, inj.plan.Seed)
				c.cluster.abort(err)
				return err
			}
			if inj.plan.verdict(key) == faultDrop {
				st.Drops++
			} else {
				st.Corrupts++
			}
			// The wasted attempt really runs: collectives are deterministic,
			// so re-running produces identical data while charging the wire
			// for the lost traffic. Its bytes are tallied as retry traffic
			// and its time (plus backoff) lands in the retry section.
			c.clock.StartSection(SectionRetry)
			sent0 := c.clock.sent
			err := run()
			if err != nil {
				c.clock.EndSection()
				return err
			}
			c.clock.retrySent += c.clock.sent - sent0
			c.clock.Advance(RetryBackoff(key, attempt, alpha))
			c.clock.EndSection()
		}
	}
}

// --- fault-decorated public API ---

// TrySend is sendE through the fault decorator: dropped attempts charge the
// wire (bytes land in the retry ledger) without delivering, then back off
// and resend; delayed sends arrive late at no cost to the sender. Without
// an active plan it is exactly sendE. Sender-side only — the receiver needs
// no decoration.
func (c *Comm) TrySend(dst, tag int, data []byte) error {
	inj := c.cluster.faults
	if inj == nil || !inj.plan.active() {
		return c.sendE(dst, tag, data, 0)
	}
	st := &inj.stats[c.world]
	alpha := c.cluster.model.Alpha
	for attempt := 0; ; attempt++ {
		*c.sendSeq++
		key := p2pKeyHash(inj.plan.Seed, c.id, c.world, *c.sendSeq)
		switch inj.plan.verdict(key) {
		case faultDelay:
			st.Delays++
			return c.sendE(dst, tag, data, RetryBackoff(key, 0, alpha))
		case faultDrop, faultCorrupt:
			if attempt >= inj.maxRetries {
				err := fmt.Errorf("%w: send to rank %d after %d attempts (seed %d)",
					ErrRetriesExhausted, dst, attempt, inj.plan.Seed)
				c.cluster.abort(err)
				return err
			}
			st.P2PDrops++
			// Charge the lost attempt as real traffic that never arrives.
			c.clock.StartSection(SectionRetry)
			c.clock.Advance(alpha)
			c.clock.sent += int64(len(data))
			c.clock.retrySent += int64(len(data))
			c.clock.messages++
			c.clock.Advance(RetryBackoff(key, attempt, alpha))
			c.clock.EndSection()
		default:
			return c.sendE(dst, tag, data, 0)
		}
	}
}

// TryBarrier is barrierE through the fault decorator.
func (c *Comm) TryBarrier() error {
	_, err := withFaults(c, func() (struct{}, error) { return struct{}{}, c.barrierE() })
	return err
}

// TryBcast is bcastE through the fault decorator, for a byte payload.
func (c *Comm) TryBcast(root int, data []byte) ([]byte, error) {
	return TryBcastShared(c, root, data, int64(len(data)))
}

// TryAllgather is allgatherE through the fault decorator.
func (c *Comm) TryAllgather(data []byte) ([][]byte, error) {
	got, err := withFaults(c, func() ([]any, error) { return c.allgatherE(data, int64(len(data))) })
	return partsAs[[]byte](got), err
}

// TryAlltoallv is alltoallvE through the fault decorator, for byte
// payloads.
func (c *Comm) TryAlltoallv(bufs [][]byte) ([][]byte, error) {
	sizes := make([]int64, len(bufs))
	for j, b := range bufs {
		sizes[j] = int64(len(b))
	}
	return TryAlltoallvShared(c, bufs, sizes)
}

// TryAllreduceInt64 is allreduceInt64E through the fault decorator.
func (c *Comm) TryAllreduceInt64(op string, v int64) (int64, error) {
	return withFaults(c, func() (int64, error) { return c.allreduceInt64E(op, v) })
}

// TryExscanInt64 is exscanInt64E through the fault decorator.
func (c *Comm) TryExscanInt64(v int64) (int64, error) {
	return withFaults(c, func() (int64, error) { return c.exscanInt64E(v) })
}

// TryGatherv is gathervE through the fault decorator.
func (c *Comm) TryGatherv(root int, data []byte) ([][]byte, error) {
	got, err := withFaults(c, func() ([]any, error) { return c.gathervE(root, data, int64(len(data))) })
	return partsAs[[]byte](got), err
}
