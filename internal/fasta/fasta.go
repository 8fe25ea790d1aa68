// Package fasta reads and writes FASTA protein files and implements the
// paper's parallel input partitioning (Section V-A): the file is divided
// into byte-balanced chunks, each reader skips the partial record at the
// start of its chunk and reads past its end to finish the last record it
// owns. Balancing bytes rather than sequence counts is what balances parse
// time across processes.
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

// ParseBytes parses an in-memory FASTA file.
func ParseBytes(data []byte) ([]Record, error) { return Parse(bytes.NewReader(data)) }

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
	for _, rec := range recs {
		if rec.Desc != "" {
			fmt.Fprintf(bw, ">%s %s\n", rec.ID, rec.Desc)
		} else {
			fmt.Fprintf(bw, ">%s\n", rec.ID)
		}
		seq := rec.Seq
		if width <= 0 {
			bw.Write(seq)
			bw.WriteByte('\n')
			continue
		}
		for len(seq) > 0 {
			n := width
			if n > len(seq) {
				n = len(seq)
			}
			bw.Write(seq[:n])
			bw.WriteByte('\n')
			seq = seq[n:]
		}
	}
	return bw.Flush()
}

// Bytes renders records to an in-memory FASTA file.
func Bytes(recs []Record, width int) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, recs, width); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
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
	return ParseBytes(data[start:stop])
}

// Partition parses the records rank owns of the p byte-balanced chunks of
// the in-memory FASTA file data: ParseChunk of the one chunk SplitBytes
// gives that rank. It is the input stage of every entry point's rank body,
// so all of them cut a file the same way.
func Partition(data []byte, rank, p int) ([]Record, error) {
	chunk := chunkOf(int64(len(data)), rank, p)
	return ParseChunk(data, chunk.Begin, chunk.End)
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
