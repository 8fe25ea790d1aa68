package mpi

import (
	"fmt"
	"testing"
)

// blockVal stands in for a large in-memory payload (a decoded matrix block).
type blockVal struct {
	id   int
	data []byte
}

// TryBcastShared must hand every rank the root's value by reference — the
// zero-copy contract — not a copy of it.
func TestBcastSharedAliasesRootValue(t *testing.T) {
	cl := NewCluster(4, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		var mine *blockVal
		if c.Rank() == 2 {
			mine = &blockVal{id: 2, data: make([]byte, 1000)}
		}
		got, err := TryBcastShared(c, 2, mine, 1000)
		if err != nil {
			return err
		}
		if got == nil || got.id != 2 {
			return fmt.Errorf("rank %d got %+v", c.Rank(), got)
		}
		if c.Rank() == 2 && got != mine {
			return fmt.Errorf("root received a different pointer")
		}
		// Every rank must observe the same backing array (pointer handoff).
		again, err := TryBcastShared(c, 2, got, 1000)
		if err != nil {
			return err
		}
		if &got.data[0] != &again.data[0] {
			return fmt.Errorf("rank %d: broadcast copied the value", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The shared collectives must charge the virtual clock bit-identically to
// their byte-codec twins when given the codec payload's exact size: same
// makespan, same per-rank sent/received, same total volume.
func TestSharedCollectivesChargeLikeCodec(t *testing.T) {
	const p = 9
	payload := func(rank, peer int) []byte { return make([]byte, 100+rank*17+peer*3) }

	type ledger struct {
		time       float64
		sent, recv []int64
		total      int64
	}
	capture := func(fn func(c *Comm) error) ledger {
		cl := NewCluster(p, DefaultCostModel())
		if err := cl.Run(fn); err != nil {
			t.Fatal(err)
		}
		s, _ := cl.Summary()
		l := ledger{time: s.Time, total: s.BytesOnWire}
		cl.Run(func(c *Comm) error { // reuse ranks to read their clocks
			return nil
		})
		for r := 0; r < p; r++ {
			l.sent = append(l.sent, cl.clocks[r].BytesSent())
			l.recv = append(l.recv, cl.clocks[r].BytesReceived())
		}
		return l
	}
	compare := func(name string, a, b ledger) {
		if a.time != b.time || a.total != b.total {
			t.Errorf("%s: time %g vs %g, total %d vs %d", name, a.time, b.time, a.total, b.total)
		}
		for r := 0; r < p; r++ {
			if a.sent[r] != b.sent[r] || a.recv[r] != b.recv[r] {
				t.Errorf("%s: rank %d sent %d/%d recv %d/%d",
					name, r, a.sent[r], b.sent[r], a.recv[r], b.recv[r])
			}
		}
	}

	// Bcast: skew clocks first so the rendezvous max matters.
	codec := capture(func(c *Comm) error {
		c.Clock().Advance(float64(c.Rank()) * 1e-3)
		var data []byte
		if c.Rank() == 3 {
			data = payload(3, 0)
		}
		_, err := c.TryBcast(3, data)
		return err
	})
	shared := capture(func(c *Comm) error {
		c.Clock().Advance(float64(c.Rank()) * 1e-3)
		var v *blockVal
		var wire int64
		if c.Rank() == 3 {
			v = &blockVal{}
			wire = int64(len(payload(3, 0)))
		}
		_, err := TryBcastShared(c, 3, v, wire)
		return err
	})
	compare("bcast", codec, shared)

	// Alltoallv with ragged per-destination sizes.
	codec = capture(func(c *Comm) error {
		bufs := make([][]byte, c.Size())
		for j := range bufs {
			bufs[j] = payload(c.Rank(), j)
		}
		_, err := c.TryAlltoallv(bufs)
		return err
	})
	shared = capture(func(c *Comm) error {
		vals := make([]*blockVal, c.Size())
		wire := make([]int64, c.Size())
		for j := range vals {
			vals[j] = &blockVal{id: j}
			wire[j] = int64(len(payload(c.Rank(), j)))
		}
		got, err := TryAlltoallvShared(c, vals, wire)
		if err != nil {
			return err
		}
		for i, v := range got {
			if v.id != c.Rank() {
				return fmt.Errorf("rank %d slot %d routed wrong value %d", c.Rank(), i, v.id)
			}
		}
		return nil
	})
	compare("alltoallv", codec, shared)
}

// Shared and byte collectives interleave on one communicator: the sequence
// numbers must stay in lockstep.
func TestSharedAndCodecCollectivesInterleave(t *testing.T) {
	cl := NewCluster(4, DefaultCostModel())
	err := cl.Run(func(c *Comm) error {
		for round := 0; round < 3; round++ {
			v, err := TryBcastShared(c, 0, round*10+c.Rank(), 8)
			if err != nil || v != round*10 {
				return fmt.Errorf("round %d: shared bcast got %d (err %v)", round, v, err)
			}
			b, err := c.TryBcast(1, []byte{byte(round)})
			if err != nil || b[0] != byte(round) {
				return fmt.Errorf("round %d: codec bcast got %v (err %v)", round, b, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
