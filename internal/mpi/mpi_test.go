package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestSendRecv(t *testing.T) {
	cl := NewCluster(2, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.TrySend(1, 7, []byte("hello"))
		}
		got, err := c.TryRecv(0, 7)
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrderingPerKey(t *testing.T) {
	cl := NewCluster(2, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.TrySend(1, 0, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := c.TryRecv(0, 0)
			if err != nil {
				return err
			}
			if got[0] != byte(i) {
				return fmt.Errorf("message %d arrived as %d", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvOverlap(t *testing.T) {
	cl := NewCluster(2, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			req, err := c.TryIsend(1, 3, make([]byte, 1000))
			if err != nil {
				return err
			}
			_, err = req.TryWait()
			return err
		}
		req := c.Irecv(0, 3)
		// Overlap: do compute before waiting.
		c.Clock().Ops(1e6)
		data, err := req.TryWait()
		if err != nil {
			return err
		}
		if len(data) != 1000 {
			return fmt.Errorf("got %d bytes", len(data))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	cl := NewCluster(4, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		// Rank 2 does a lot of virtual work; after the barrier everyone's
		// clock must be at least rank 2's pre-barrier time.
		if c.Rank() == 2 {
			c.Clock().Advance(5.0)
		}
		if err := c.TryBarrier(); err != nil {
			return err
		}
		if c.Clock().Now() < 5.0 {
			return fmt.Errorf("rank %d clock %f after barrier", c.Rank(), c.Clock().Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	cl := NewCluster(5, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		var data []byte
		if c.Rank() == 3 {
			data = []byte("payload")
		}
		got, err := c.TryBcast(3, data)
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	cl := NewCluster(4, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		got, err := c.TryAllgather([]byte{byte(c.Rank() * 10)})
		if err != nil {
			return err
		}
		for i, d := range got {
			if len(d) != 1 || d[0] != byte(i*10) {
				return fmt.Errorf("rank %d slot %d = %v", c.Rank(), i, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	const p = 4
	cl := NewCluster(p, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		bufs := make([][]byte, p)
		for j := range bufs {
			// Variable-size payload identifying (src,dst).
			bufs[j] = []byte(fmt.Sprintf("%d->%d", c.Rank(), j))
			if j%2 == 0 {
				bufs[j] = append(bufs[j], '!')
			}
		}
		got, err := c.TryAlltoallv(bufs)
		if err != nil {
			return err
		}
		for i, d := range got {
			want := fmt.Sprintf("%d->%d", i, c.Rank())
			if c.Rank()%2 == 0 {
				want += "!"
			}
			if string(d) != want {
				return fmt.Errorf("rank %d from %d: %q != %q", c.Rank(), i, d, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceAndExscan(t *testing.T) {
	const p = 6
	cl := NewCluster(p, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		v := int64(c.Rank() + 1)
		for _, tc := range []struct {
			op   string
			want int64
		}{{"sum", 21}, {"max", 6}, {"min", 1}} {
			if got, err := c.TryAllreduceInt64(tc.op, v); err != nil || got != tc.want {
				return fmt.Errorf("%s = %d (err %v), want %d", tc.op, got, err, tc.want)
			}
		}
		want := int64(c.Rank() * (c.Rank() + 1) / 2) // sum of 1..rank
		if got, err := c.TryExscanInt64(v); err != nil || got != want {
			return fmt.Errorf("exscan = %d (err %v), want %d", got, err, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherv(t *testing.T) {
	cl := NewCluster(3, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		got, err := c.TryGatherv(1, []byte{byte('a' + c.Rank())})
		if err != nil {
			return err
		}
		if c.Rank() != 1 {
			if got != nil {
				return fmt.Errorf("non-root got %v", got)
			}
			return nil
		}
		if string(got[0])+string(got[1])+string(got[2]) != "abc" {
			return fmt.Errorf("root got %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Split into a 2D grid: row and column communicators as used by SUMMA.
func TestSplitGrid(t *testing.T) {
	const q = 3
	cl := NewCluster(q*q, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		row, col := c.Rank()/q, c.Rank()%q
		rowComm, err := c.TrySplit(row, col)
		if err != nil {
			return err
		}
		colComm, err := c.TrySplit(col, row)
		if err != nil {
			return err
		}
		if rowComm.Size() != q || colComm.Size() != q {
			return fmt.Errorf("split sizes %d,%d", rowComm.Size(), colComm.Size())
		}
		if rowComm.Rank() != col || colComm.Rank() != row {
			return fmt.Errorf("split ranks %d,%d want %d,%d",
				rowComm.Rank(), colComm.Rank(), col, row)
		}
		// Collectives on the sub-communicators must stay within the group.
		sum, err := rowComm.TryAllreduceInt64("sum", int64(c.Rank()))
		if err != nil {
			return err
		}
		wantSum := int64(row*q*q) + int64(q*(q-1)/2) // sum of row*q+0..row*q+q-1
		if sum != wantSum {
			return fmt.Errorf("row sum = %d, want %d", sum, wantSum)
		}
		// Point-to-point on sub-communicator.
		if rowComm.Rank() == 0 {
			return rowComm.TrySend(1, 9, []byte{byte(row)})
		} else if rowComm.Rank() == 1 {
			if got, err := rowComm.TryRecv(0, 9); err != nil || got[0] != byte(row) {
				return fmt.Errorf("row p2p got %v (err %v)", got, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeDeterminism(t *testing.T) {
	run := func() float64 {
		cl := NewCluster(4, DefaultCostModel())
		err := cl.Run(func(c *Comm) error {
			c.Clock().Ops(float64(c.Rank()+1) * 1e7)
			if _, err := c.TryAllgather(make([]byte, 100*(c.Rank()+1))); err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := c.TrySend(3, 0, make([]byte, 12345)); err != nil {
					return err
				}
			}
			if c.Rank() == 3 {
				if _, err := c.TryRecv(0, 0); err != nil {
					return err
				}
			}
			return c.TryBarrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := cl.Summary()
		return s.Time
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Errorf("virtual time not deterministic: %g vs %g", t1, t2)
	}
	if t1 <= 0 {
		t.Error("virtual time should be positive")
	}
}

func TestMessageArrivalDelaysReceiver(t *testing.T) {
	model := DefaultCostModel()
	cl := NewCluster(2, model)
	var recvClock float64
	err := cl.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Clock().Advance(1.0) // busy sender
			return c.TrySend(1, 0, make([]byte, 8))
		}
		_, err := c.TryRecv(0, 0)
		recvClock = c.Clock().Now()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvClock < 1.0 {
		t.Errorf("receiver clock %f should be delayed past sender's 1.0", recvClock)
	}
}

func TestSections(t *testing.T) {
	cl := NewCluster(2, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		c.Clock().Section("compute", func() {
			c.Clock().Ops(2e9) // 1 second at default rate
		})
		c.Clock().Section("idle", func() {})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := cl.Summary()
	secs := s.SectionMax
	if secs["compute"] < 0.99 || secs["compute"] > 1.01 {
		t.Errorf("compute section = %f, want ~1.0", secs["compute"])
	}
	if secs["idle"] != 0 {
		t.Errorf("idle section = %f, want 0", secs["idle"])
	}
	if mean := s.SectionMean; mean["compute"] < 0.99 {
		t.Errorf("mean compute = %f", mean["compute"])
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	cl := NewCluster(3, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("rank 1 failed")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestRunRecoversPanics(t *testing.T) {
	cl := NewCluster(2, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestCommunicationCounters(t *testing.T) {
	cl := NewCluster(2, DefaultCostModel())
	var sent, recvd int64
	err := cl.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			err := c.TrySend(1, 0, make([]byte, 512))
			atomic.StoreInt64(&sent, c.Clock().BytesSent())
			return err
		}
		_, err := c.TryRecv(0, 0)
		atomic.StoreInt64(&recvd, c.Clock().BytesReceived())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if sent != 512 || recvd != 512 {
		t.Errorf("counters sent=%d recvd=%d, want 512/512", sent, recvd)
	}
	if s, _ := cl.Summary(); s.BytesOnWire != 512 {
		t.Errorf("BytesOnWire = %d", s.BytesOnWire)
	}
}

// Collective cost should grow with communicator size: the same broadcast on
// 64 virtual ranks must cost more virtual time than on 4.
func TestCollectiveCostScalesWithP(t *testing.T) {
	timeFor := func(p int) float64 {
		cl := NewCluster(p, DefaultCostModel())
		if err := cl.Run(func(c *Comm) error {
			_, err := c.TryBcast(0, make([]byte, 1<<20))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		s, _ := cl.Summary()
		return s.Time
	}
	if t4, t64 := timeFor(4), timeFor(64); t64 <= t4 {
		t.Errorf("bcast on 64 ranks (%g) should cost more than on 4 (%g)", t64, t4)
	}
}

func TestNestedSplitIDsDistinct(t *testing.T) {
	// Two successive splits with identical colors must not cross-deliver.
	cl := NewCluster(4, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		a, err := c.TrySplit(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		b, err := c.TrySplit(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		for _, tc := range []struct {
			comm *Comm
			msg  string
		}{{a, "A"}, {b, "B"}} {
			if tc.comm.Rank() == 0 {
				if err := tc.comm.TrySend(1, 0, []byte(tc.msg)); err != nil {
					return err
				}
			}
		}
		for _, tc := range []struct {
			comm *Comm
			msg  string
		}{{a, "A"}, {b, "B"}} {
			if tc.comm.Rank() == 1 {
				if got, err := tc.comm.TryRecv(0, 0); err != nil || string(got) != tc.msg {
					return fmt.Errorf("comm %s received %q (err %v)", tc.msg, got, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClockMemoryLedgerAndCredits(t *testing.T) {
	cl := NewCluster(1, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		clock := c.Clock()
		if clock.LiveBytes() != 0 || clock.PeakBytes() != 0 {
			t.Errorf("fresh clock has live=%d peak=%d", clock.LiveBytes(), clock.PeakBytes())
		}
		clock.AllocBytes(100)
		clock.AllocBytes(50)
		clock.FreeBytes(100)
		clock.AllocBytes(25)
		if clock.LiveBytes() != 75 {
			t.Errorf("live = %d, want 75", clock.LiveBytes())
		}
		if clock.PeakBytes() != 150 {
			t.Errorf("peak = %d, want 150", clock.PeakBytes())
		}
		// The mark window sees a brief charge and restarts at the live bytes.
		first, idle := clock.PeakSinceMark(), clock.PeakSinceMark()
		clock.AllocBytes(10)
		clock.FreeBytes(10)
		if brief := clock.PeakSinceMark(); first != 150 || idle != 75 || brief != 85 {
			t.Errorf("PeakSinceMark windows = %d, %d, %d; want 150, 75, 85", first, idle, brief)
		}
		// Negative and over-free inputs are clamped, never panic.
		clock.AllocBytes(-5)
		clock.FreeBytes(1000)
		if clock.LiveBytes() != 0 || clock.PeakBytes() != 150 {
			t.Errorf("after clamp: live=%d peak=%d", clock.LiveBytes(), clock.PeakBytes())
		}

		// CreditSection attributes work without advancing time.
		before := clock.Now()
		clock.CreditSection("align", 1.5)
		clock.CreditSection("align", 0.5)
		clock.CreditSection("noop", -1)
		if clock.Now() != before {
			t.Error("CreditSection advanced the clock")
		}
		secs := clock.Sections()
		if secs["align"] != 2.0 {
			t.Errorf("align credit = %g, want 2", secs["align"])
		}
		if _, ok := secs["noop"]; ok {
			t.Error("negative credit recorded")
		}

		// Duration helpers mirror Ops/ParOps without advancing.
		clock.SetThreads(4)
		if d := clock.ParOpsDuration(8e9); d != clock.OpsDuration(8e9)/4 {
			t.Errorf("ParOpsDuration = %g, want quarter of serial", d)
		}
		if clock.Now() != before {
			t.Error("duration helpers advanced the clock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := cl.Summary(); s.PeakBytes != 150 {
		t.Errorf("cluster peak = %d, want 150", s.PeakBytes)
	}
}
