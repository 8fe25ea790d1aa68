// The run read-out: each rank's record — its clock snapshot and its own
// fault counters — and the one fold that reduces rank-ordered records to a
// Summary. Only the way the records reach the fold differs by backend:
// Cluster.Summary reads every clock after an in-process Run, Comm.Summarize
// gathers the records to rank 0 on any backend.
package mpi

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/wire"
)

// Summary is a run's ledger reduced over ranks.
type Summary struct {
	Time        float64            // virtual makespan: the latest clock
	SectionMax  map[string]float64 // per-component time, max over ranks (the dissection plots' convention)
	SectionMean map[string]float64 // per-component time, mean over ranks
	BytesOnWire int64              // bytes sent, summed
	PeakBytes   int64              // the largest per-rank live-bytes high-water mark: a run fits iff its worst rank fits
	RetryBytes  int64              // the part of BytesOnWire re-sent recovering from injected faults
	Faults      FaultStats         // injected events, summed
}

// record is one rank's contribution to a Summary.
type record struct {
	now               float64
	sent, peak, retry int64
	faults            FaultStats
	sections          map[string]float64
}

// record snapshots clock c of world rank world.
func (cl *Cluster) record(c *Clock, world int) record {
	r := record{now: c.now, sent: c.sent, peak: c.peak, retry: c.retrySent, sections: c.sections}
	if cl.faults != nil {
		r.faults = cl.faults.stats[world]
	}
	return r
}

// fold reduces rank-ordered records: maxima for the time, the sections and
// the peak, sums for the bytes and the fault counters, and section means
// summed in rank order, so every backend reports the same bits.
func fold(recs []record) Summary {
	s := Summary{SectionMax: map[string]float64{}, SectionMean: map[string]float64{}}
	for _, r := range recs {
		s.Time = max(s.Time, r.now)
		s.BytesOnWire += r.sent
		s.PeakBytes = max(s.PeakBytes, r.peak)
		s.RetryBytes += r.retry
		f, g := s.Faults, r.faults
		s.Faults = FaultStats{f.Drops + g.Drops, f.Corrupts + g.Corrupts, f.Delays + g.Delays,
			f.Crashes + g.Crashes, f.Gates + g.Gates, f.P2PDrops + g.P2PDrops}
		for name, v := range r.sections {
			if old, ok := s.SectionMax[name]; !ok || v > old {
				s.SectionMax[name] = v
			}
			s.SectionMean[name] += v
		}
	}
	for name := range s.SectionMean {
		s.SectionMean[name] /= float64(len(recs))
	}
	return s
}

// Summary folds every rank's ledger after Run, a failed Run's included. ok
// is false on a tcp-backed cluster, which holds one rank's clock: use
// Comm.Summarize there.
func (cl *Cluster) Summary() (s Summary, ok bool) {
	if cl.tcp != nil {
		return Summary{}, false
	}
	recs := make([]record, cl.size)
	for rank, c := range cl.clocks {
		recs[rank] = cl.record(c, rank)
	}
	return fold(recs), true
}

// Summarize is the read-out on any backend. Collective: every rank's record,
// snapshot on entry, is gathered to rank 0, which folds them and broadcasts
// the Summary every rank returns. Its two collectives advance the clocks
// past the snapshot, so call it once, after the run's work.
func (c *Comm) Summarize() (Summary, error) {
	parts, err := c.TryGatherv(0, seal(appendRecord(nil, c.cluster.record(c.clock, c.world))))
	if err != nil {
		return Summary{}, err
	}
	var buf []byte
	if c.rank == 0 {
		recs := make([]record, len(parts))
		for rank, p := range parts {
			if recs[rank], err = unseal(p, readRecord); err != nil {
				return Summary{}, fmt.Errorf("mpi: record from rank %d: %w", rank, err)
			}
		}
		buf = seal(appendSummary(nil, fold(recs)))
	}
	if buf, err = c.TryBcast(0, buf); err != nil {
		return Summary{}, err
	}
	sum, err := unseal(buf, readSummary)
	if err != nil {
		return Summary{}, fmt.Errorf("mpi: summary from rank 0: %w", err)
	}
	return sum, nil
}

// On the wire a record is the time, nine u64 counters (sent, peak, retry,
// FaultStats in field order) and the sections in name order; a Summary is
// laid out the same with SectionMax as the sections, then SectionMean. Both
// come from a peer and are sealed with a checksum: counts are checked
// against the bytes left, and the checksum catches a flipped value.

func appendRecord(dst []byte, r record) []byte {
	dst = wire.AppendF64(dst, r.now)
	f := r.faults
	for _, n := range []int64{r.sent, r.peak, r.retry, f.Drops, f.Corrupts, f.Delays, f.Crashes, f.Gates, f.P2PDrops} {
		dst = wire.AppendU64(dst, uint64(n))
	}
	return appendSections(dst, r.sections)
}

func readRecord(rd *wire.Reader) record {
	r := record{now: rd.F64()}
	var n [9]int64
	wire.U64s(rd, n[:])
	r.sent, r.peak, r.retry = n[0], n[1], n[2]
	r.faults = FaultStats{n[3], n[4], n[5], n[6], n[7], n[8]}
	r.sections = readSections(rd)
	return r
}

func appendSummary(dst []byte, s Summary) []byte {
	r := record{s.Time, s.BytesOnWire, s.PeakBytes, s.RetryBytes, s.Faults, s.SectionMax}
	return appendSections(appendRecord(dst, r), s.SectionMean)
}

func readSummary(rd *wire.Reader) Summary {
	r, mean := readRecord(rd), readSections(rd)
	return Summary{Time: r.now, SectionMax: r.sections, SectionMean: mean,
		BytesOnWire: r.sent, PeakBytes: r.peak, RetryBytes: r.retry, Faults: r.faults}
}

func appendSections(dst []byte, m map[string]float64) []byte {
	dst = wire.AppendU64(dst, uint64(len(m)))
	for _, name := range slices.Sorted(maps.Keys(m)) {
		dst = wire.AppendF64(wire.AppendString(dst, name), m[name])
	}
	return dst
}

func readSections(rd *wire.Reader) map[string]float64 {
	m := make(map[string]float64)
	for i, n := 0, rd.Count(16); i < n && rd.Err() == nil; i++ {
		m[rd.String()] = rd.F64()
	}
	return m
}

// seal appends body's checksum.
func seal(body []byte) []byte {
	return wire.AppendU64(body, wire.Checksum(wire.ChecksumInit, body))
}

// unseal checks buf's trailing checksum and decodes the body with read,
// which must consume all of it.
func unseal[T any](buf []byte, read func(*wire.Reader) T) (T, error) {
	var v T
	if len(buf) < 8 {
		return v, fmt.Errorf("%d bytes, short of a checksum", len(buf))
	}
	body := buf[:len(buf)-8]
	if got, want := wire.U64(buf[len(body):]), wire.Checksum(wire.ChecksumInit, body); got != want {
		return v, fmt.Errorf("checksum %016x, want %016x", got, want)
	}
	rd := wire.NewReader(body)
	v = read(rd)
	return v, rd.Done()
}
