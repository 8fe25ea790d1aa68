// Package fasta reads and writes FASTA protein files and implements the
// paper's parallel input partitioning (Section V-A): the file is divided
// into byte-balanced chunks, each reader skips the partial record at the
// start of its chunk and reads past its end to finish the last record it
// owns. Balancing bytes rather than sequence counts is what balances parse
// time across processes. Partition makes the same cut over records already
// in memory, from their sizes alone.
package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Record is one FASTA entry.
type Record struct {
	ID   string // header up to the first whitespace, without '>'
	Desc string // remainder of the header line
	Seq  []byte
}

// Parse reads every record from r.
func Parse(r io.Reader) ([]Record, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var recs []Record
	var cur *Record
	lineNo := 0
	for {
		line, err := br.ReadBytes('\n')
		lineNo++
		if len(line) > 0 {
			trimmed := bytes.TrimRight(line, "\r\n")
			switch {
			case len(trimmed) == 0:
				// blank line: ignore
			case trimmed[0] == '>':
				recs = append(recs, Record{})
				cur = &recs[len(recs)-1]
				cur.ID, cur.Desc = splitHeader(trimmed[1:])
			case cur == nil:
				return nil, fmt.Errorf("fasta: line %d: sequence data before any header", lineNo)
			default:
				cur.Seq = append(cur.Seq, trimmed...)
			}
		}
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("fasta: read: %w", err)
		}
	}
}

func splitHeader(h []byte) (id, desc string) {
	s := string(bytes.TrimSpace(h))
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:])
	}
	return s, ""
}

// Write renders records in FASTA format with the given line width
// (width <= 0 writes each sequence on a single line).
func Write(w io.Writer, recs []Record, width int) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, rec := range recs {
		buf = appendRecord(buf[:0], rec, width)
		bw.Write(buf)
	}
	return bw.Flush()
}

// Bytes renders records to an in-memory FASTA file, in a buffer sized once.
func Bytes(recs []Record, width int) []byte {
	n := 0
	for _, rec := range recs {
		n += recordSize(rec, width)
	}
	out := make([]byte, 0, n)
	for _, rec := range recs {
		out = appendRecord(out, rec, width)
	}
	return out
}

// appendRecord appends rec in FASTA format: the header line, then the
// sequence in lines of width residues (one line when width <= 0).
func appendRecord(dst []byte, rec Record, width int) []byte {
	dst = append(dst, '>')
	dst = append(dst, rec.ID...)
	if rec.Desc != "" {
		dst = append(dst, ' ')
		dst = append(dst, rec.Desc...)
	}
	dst = append(dst, '\n')
	seq := rec.Seq
	if width <= 0 {
		dst = append(dst, seq...)
		return append(dst, '\n')
	}
	for len(seq) > 0 {
		n := min(width, len(seq))
		dst = append(dst, seq[:n]...)
		dst = append(dst, '\n')
		seq = seq[n:]
	}
	return dst
}

// recordSize is the length of appendRecord's output for rec.
func recordSize(rec Record, width int) int {
	n := len(rec.ID) + 2 + len(rec.Seq)
	if rec.Desc != "" {
		n += 1 + len(rec.Desc)
	}
	switch {
	case width <= 0:
		n++
	case len(rec.Seq) > 0:
		n += (len(rec.Seq) + width - 1) / width
	}
	return n
}

// Chunk describes the byte range a process reads: [Begin, End) is its owned
// chunk; parsing may continue past End to finish the final owned record.
type Chunk struct {
	Rank  int
	Begin int64
	End   int64
}

// SplitBytes divides a file of size total into p byte-balanced chunks, as
// each PASTIS process does independently from the file size (Section V-A).
func SplitBytes(total int64, p int) []Chunk {
	chunks := make([]Chunk, p)
	for r := range chunks {
		chunks[r] = chunkOf(total, r, p)
	}
	return chunks
}

// chunkOf is chunk r of SplitBytes(total, p).
func chunkOf(total int64, r, p int) Chunk {
	return Chunk{Rank: r, Begin: total * int64(r) / int64(p), End: total * int64(r+1) / int64(p)}
}

// ParseChunk parses the records *owned* by the chunk [begin,end) of data:
// a record is owned by the chunk in which its '>' byte lies. The reader
// skips any partial record at the chunk start and reads past end to finish
// its last record, mirroring the paper's over-read of extra bytes.
func ParseChunk(data []byte, begin, end int64) ([]Record, error) {
	if begin >= int64(len(data)) || begin >= end {
		return nil, nil
	}
	// Skip forward to the first header whose '>' lies at or after begin.
	// A '>' only starts a record at the beginning of a line, so search for
	// "\n>" from begin-1: that also catches a header sitting exactly at the
	// chunk boundary, which would otherwise be claimed by neither neighbor.
	start := begin
	if begin == 0 {
		if data[0] != '>' {
			i := bytes.Index(data, []byte("\n>"))
			if i < 0 {
				return nil, nil
			}
			start = int64(i) + 1
		}
	} else {
		i := bytes.Index(data[begin-1:], []byte("\n>"))
		if i < 0 {
			return nil, nil // no record starts in this chunk
		}
		start = begin - 1 + int64(i) + 1
	}
	if start >= end {
		return nil, nil
	}
	// Find the first header at or after end; everything before it belongs
	// to records started in this chunk.
	stop := int64(len(data))
	if end < int64(len(data)) {
		j := bytes.Index(data[end-1:], []byte("\n>"))
		if j >= 0 {
			stop = end - 1 + int64(j) + 1
		}
	}
	return Parse(bytes.NewReader(data[start:stop]))
}

// Partition returns the records rank owns of the p byte-balanced chunks of
// the single-line FASTA rendering of recs: those whose '>' byte lies in the
// chunk SplitBytes gives that rank, as ParseChunk would read them from
// Bytes(recs, 0). The offsets come from the records' sizes; nothing is
// rendered, and the result is a subslice of recs, shared with the caller
// and read-only. A record is handed over as given, so one a FASTA round
// trip would alter (an ID holding whitespace, a newline inside Seq) reaches
// the rank unaltered. It is the input stage of every entry point's rank
// body, so all of them cut the input the same way.
func Partition(recs []Record, rank, p int) []Record {
	var total int64
	for _, rec := range recs {
		total += int64(recordSize(rec, 0))
	}
	chunk := chunkOf(total, rank, p)
	lo := len(recs)
	var at int64 // the offset of recs[i]'s '>'
	for i, rec := range recs {
		if at >= chunk.Begin {
			lo = min(lo, i)
		}
		if at >= chunk.End {
			return recs[lo:i:i]
		}
		at += int64(recordSize(rec, 0))
	}
	return recs[lo:]
}

// TotalSeqBytes sums sequence lengths, the quantity the byte-balanced
// partitioning equalizes across ranks.
func TotalSeqBytes(recs []Record) int64 {
	var n int64
	for _, r := range recs {
		n += int64(len(r.Seq))
	}
	return n
}
