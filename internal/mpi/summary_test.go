package mpi

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wire"
)

// The reference read-out: the whole-cluster readers the fold replaced, one
// loop over cl.clocks (or the fault counters) each.
func referenceSummary(cl *Cluster) Summary {
	var s Summary
	for _, c := range cl.clocks {
		if c.now > s.Time {
			s.Time = c.now
		}
	}
	s.SectionMax = map[string]float64{}
	for _, c := range cl.clocks {
		for name, v := range c.sections {
			if old, ok := s.SectionMax[name]; !ok || v > old {
				s.SectionMax[name] = v
			}
		}
	}
	s.SectionMean = map[string]float64{}
	for _, c := range cl.clocks {
		for name, v := range c.sections {
			s.SectionMean[name] += v
		}
	}
	for name := range s.SectionMean {
		s.SectionMean[name] /= float64(cl.size)
	}
	for _, c := range cl.clocks {
		if p := c.PeakBytes(); p > s.PeakBytes {
			s.PeakBytes = p
		}
	}
	for _, c := range cl.clocks {
		s.BytesOnWire += c.sent
	}
	for _, c := range cl.clocks {
		s.RetryBytes += c.retrySent
	}
	if cl.faults != nil {
		for _, f := range cl.faults.stats {
			s.Faults.Drops += f.Drops
			s.Faults.Corrupts += f.Corrupts
			s.Faults.Delays += f.Delays
			s.Faults.Crashes += f.Crashes
			s.Faults.Gates += f.Gates
			s.Faults.P2PDrops += f.P2PDrops
		}
	}
	return s
}

// summaryProgram is faultProgram inside a section, with per-rank allocations
// and per-rank section names, so maxima, means and sums all differ.
func summaryProgram(c *Comm) error {
	clk := c.Clock()
	clk.AllocBytes(int64(1000 * (c.Rank() + 1)))
	var err error
	clk.Section("program", func() { _, err = faultProgram(c) })
	clk.CreditSection(fmt.Sprintf("rank%d", c.Rank()%3), float64(c.Rank()+1)*1e-3)
	clk.FreeBytes(500)
	return err
}

// TestSummaryFold holds both read-outs to the readers they replaced, bit for
// bit, with a drop/corrupt/delay plan armed: Cluster.Summary after Run, and
// Comm.Summarize called where Run would have returned — in process and over
// loopback tcp, where every rank must return the same Summary.
func TestSummaryFold(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	plan := FaultPlan{Seed: 23, DropProb: 0.1, CorruptProb: 0.1, DelayProb: 0.1}
	for _, p := range []int{1, 4, 16} {
		cl := NewCluster(p, DefaultCostModel()).ArmFaults(plan)
		if err := cl.Run(summaryProgram); err != nil {
			t.Fatal(err)
		}
		want := referenceSummary(cl)
		if p > 1 && (want.RetryBytes == 0 || want.Faults.Drops+want.Faults.Corrupts == 0 || want.Faults.Delays == 0) {
			t.Fatalf("p=%d: plan left RetryBytes %d, Faults %+v (weak test)", p, want.RetryBytes, want.Faults)
		}
		if got, ok := cl.Summary(); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("p=%d: Cluster.Summary (ok %v)\n  %+v\nwant the readers'\n  %+v", p, ok, got, want)
		}

		summarized := func(backend string, run func(body func(*Comm) error) error) {
			var mu sync.Mutex
			got := make([]Summary, p)
			err := run(func(c *Comm) error {
				if err := summaryProgram(c); err != nil {
					return err
				}
				s, err := c.Summarize()
				mu.Lock()
				got[c.Rank()] = s
				mu.Unlock()
				return err
			})
			if err != nil {
				t.Fatalf("p=%d %s: %v", p, backend, err)
			}
			for rank, s := range got {
				if !reflect.DeepEqual(s, want) {
					t.Errorf("p=%d %s: rank %d's Summarize\n  %+v\nwant the readers'\n  %+v", p, backend, rank, s, want)
				}
			}
		}
		summarized("in process", func(body func(*Comm) error) error {
			return NewCluster(p, DefaultCostModel()).ArmFaults(plan).Run(body)
		})
		if p <= 4 {
			summarized("tcp", func(body func(*Comm) error) error {
				return RunTCPLocal(p, DefaultCostModel(), func(_ int, cl *Cluster) {
					if _, ok := cl.Summary(); ok {
						t.Error("Cluster.Summary reports on a tcp-backed cluster, which holds one rank's clock")
					}
					cl.ArmFaults(plan)
				}, body)
			})
		}
	}
}

// A record and a Summary cross ranks: both codecs under the shared hardening
// contract, and lengths forged under a valid checksum rejected as errors (a
// name length of 2⁶³ or more turns negative as an int).
func TestRecordHardening(t *testing.T) {
	recs := []record{
		{now: 0.25, sent: 1 << 20, peak: 4096, retry: 512,
			sections: map[string]float64{"align": 0.125, "form A": 0.0625, "wait": 0},
			faults:   FaultStats{Drops: 1, Corrupts: 2, Delays: 3, Gates: 40, P2PDrops: 5}},
		{now: 0.5, sent: 7, peak: 8192, sections: map[string]float64{"align": 0.25, "retry": 1e-6},
			faults: FaultStats{Crashes: 1, Gates: 39}},
	}
	testutil.Hardening(t, seal(appendRecord(nil, recs[0])), func(buf []byte) ([]byte, error) {
		r, err := unseal(buf, readRecord)
		if err != nil {
			return nil, err
		}
		return seal(appendRecord(nil, r)), nil
	})
	testutil.Hardening(t, seal(appendSummary(nil, fold(recs))), func(buf []byte) ([]byte, error) {
		s, err := unseal(buf, readSummary)
		if err != nil {
			return nil, err
		}
		return seal(appendSummary(nil, s)), nil
	})

	empty := appendRecord(nil, record{})
	head := empty[:len(empty)-8] // everything before the section count
	entry := func(nameLen uint64) []byte {
		p := wire.AppendU64(bytes.Clone(head), 1)
		p = wire.AppendU64(p, nameLen)
		p = append(p, "align"...)
		return wire.AppendF64(p, 2.5)
	}
	for name, body := range map[string][]byte{
		"name length 2^63":   entry(1 << 63),
		"name length 2^64-1": entry(math.MaxUint64),
		"count beyond bytes": wire.AppendU64(bytes.Clone(head), 1<<40),
		"short counters":     bytes.Clone(head[:20]),
	} {
		if _, err := unseal(seal(body), readRecord); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
