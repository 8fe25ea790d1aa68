package mpi

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/testutil"
)

// RunLocal is the one in-process launcher: it hands back rank 0's value and
// the run's Summary, arms the plan it is given, ties the run to its context, and
// returns a body's error as Cluster.Run reports it.
func TestRunLocal(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	sum := func(c *Comm) (int64, error) { return c.TryAllreduceInt64("sum", int64(c.Rank()+1)) }

	t.Run("rank 0's value and the ledger", func(t *testing.T) {
		got, s, err := RunLocal(context.Background(), 4, DefaultCostModel(), nil, sum)
		if err != nil || got != 10 {
			t.Fatalf("sum over 4 ranks = %d, %v", got, err)
		}
		if s.Time <= 0 || s.Faults != (FaultStats{}) {
			t.Errorf("fault-free run: Time %g, Faults %+v", s.Time, s.Faults)
		}
	})

	t.Run("plan armed", func(t *testing.T) {
		plan := &FaultPlan{Seed: 3, DelayProb: 1}
		got, s, err := RunLocal(context.Background(), 4, DefaultCostModel(), plan, sum)
		if err != nil || got != 10 {
			t.Fatalf("sum under a delay plan = %d, %v", got, err)
		}
		if st := s.Faults; st.Delays == 0 || st.Gates == 0 {
			t.Errorf("plan was not armed: %+v", st)
		}
	})

	t.Run("cancelled mid-run", func(t *testing.T) {
		cause := errors.New("operator gave up")
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		_, _, err := RunLocal(ctx, 4, DefaultCostModel(), nil, func(c *Comm) (int, error) {
			if err := c.TryBarrier(); err != nil {
				return 0, err
			}
			if c.Rank() == 0 {
				cancel(cause) // the run is under way on every rank
			}
			for {
				if err := c.TryBarrier(); err != nil {
					return 0, err
				}
			}
		})
		if !errors.Is(err, ErrInterrupted) || !errors.Is(err, cause) {
			t.Fatalf("error %v does not wrap ErrInterrupted and the context's cause", err)
		}
	})

	t.Run("body error as is", func(t *testing.T) {
		boom := errors.New("rank 2 failed")
		got, s, err := RunLocal(context.Background(), 4, DefaultCostModel(), nil, func(c *Comm) (int, error) {
			if c.Rank() == 2 {
				return 0, boom
			}
			return 7, c.TryBarrier()
		})
		if err != boom {
			t.Fatalf("error %v, want the body's own", err)
		}
		if got != 0 || s.SectionMax == nil {
			t.Errorf("failed run returned value %d, summary %+v", got, s)
		}
	})

	// No watcher goroutine without a cancellable context (the per-batch query
	// path passes none), and none left behind by one that never fired.
	for name, ctx := range map[string]func() (context.Context, context.CancelFunc){
		"nil context":       func() (context.Context, context.CancelFunc) { return nil, func() {} },
		"unfired context":   func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
		"background itself": func() (context.Context, context.CancelFunc) { return context.Background(), func() {} },
	} {
		t.Run("no goroutine left: "+name, func(t *testing.T) {
			ctx, cancel := ctx()
			defer cancel()
			before := runtime.NumGoroutine()
			if _, _, err := RunLocal(ctx, 4, DefaultCostModel(), nil, sum); err != nil {
				t.Fatal(err)
			}
			// A rank goroutine has signalled Run before it is quite gone.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before the run, %d after", before, after)
			}
		})
	}
}
