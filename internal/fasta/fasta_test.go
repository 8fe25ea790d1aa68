package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const sample = `>seq1 first protein
MKVLAW
>seq2
ARNDCQEGH
ILKMFPSTW
>seq3 third	one
YV
`

func TestParseBasic(t *testing.T) {
	recs, err := ParseBytes([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].ID != "seq1" || recs[0].Desc != "first protein" || string(recs[0].Seq) != "MKVLAW" {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if recs[1].ID != "seq2" || string(recs[1].Seq) != "ARNDCQEGHILKMFPSTW" {
		t.Errorf("rec1 = %+v", recs[1])
	}
	if recs[2].ID != "seq3" || string(recs[2].Seq) != "YV" {
		t.Errorf("rec2 = %+v", recs[2])
	}
}

func TestParseCRLFAndBlankLines(t *testing.T) {
	in := ">a r1\r\nMKV\r\n\r\nLAW\r\n>b\r\nAR\r\n"
	recs, err := ParseBytes([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Seq) != "MKVLAW" || string(recs[1].Seq) != "AR" {
		t.Errorf("CRLF parse failed: %+v", recs)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseBytes([]byte("MKV\n>a\nAR\n")); err == nil {
		t.Error("sequence before header should error")
	}
}

func TestParseEmpty(t *testing.T) {
	recs, err := ParseBytes(nil)
	if err != nil || len(recs) != 0 {
		t.Errorf("empty input: %v, %v", recs, err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	recs := []Record{
		{ID: "p1", Desc: "alpha", Seq: []byte("MKVLAWMKVLAWMKVLAW")},
		{ID: "p2", Seq: []byte("AR")},
		{ID: "p3", Desc: "gamma delta", Seq: []byte(strings.Repeat("HPLC", 40))},
	}
	for _, width := range []int{0, 7, 60, 1000} {
		var buf bytes.Buffer
		if err := Write(&buf, recs, width); err != nil {
			t.Fatal(err)
		}
		back, err := ParseBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(back) != len(recs) {
			t.Fatalf("width %d: %d records back, want %d", width, len(back), len(recs))
		}
		for i := range recs {
			if back[i].ID != recs[i].ID || back[i].Desc != recs[i].Desc ||
				!bytes.Equal(back[i].Seq, recs[i].Seq) {
				t.Errorf("width %d rec %d: %+v != %+v", width, i, back[i], recs[i])
			}
		}
	}
}

// writeTwin is Write as it was before Bytes sized its buffer once and
// headers stopped going through fmt.Fprintf, kept verbatim.
func writeTwin(w io.Writer, recs []Record, width int) error {
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

// TestWriteMatchesTwin holds Write and Bytes byte for byte to writeTwin, on
// records with and without descriptions, empty and exactly one line long,
// at widths 0 and 60 and around a line's edge; Bytes fills its buffer to
// the capacity it sized.
func TestWriteMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := []Record{
		{ID: "p1", Desc: "alpha", Seq: []byte("MKVLAWMKVLAWMKVLAW")},
		{ID: "p2", Seq: []byte("AR")},
		{ID: "p3", Desc: "gamma delta", Seq: []byte(strings.Repeat("HPLC", 40))},
		{ID: "empty"},
		{ID: "empty-desc", Desc: "nothing here"},
		{ID: "line", Seq: []byte(strings.Repeat("W", 60))},
	}
	for i := range 40 {
		rec := Record{ID: fmt.Sprintf("r%d", i), Seq: make([]byte, rng.Intn(200))}
		if i%2 == 0 {
			rec.Desc = fmt.Sprintf("family %d", rng.Intn(9))
		}
		for j := range rec.Seq {
			rec.Seq[j] = "ACDEFGHIKLMNPQRSTVWY"[rng.Intn(20)]
		}
		recs = append(recs, rec)
	}
	for _, width := range []int{0, 60, -1, 1, 59, 61} {
		var want, got bytes.Buffer
		if err := writeTwin(&want, recs, width); err != nil {
			t.Fatal(err)
		}
		if err := Write(&got, recs, width); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("width %d: Write differs from the twin", width)
		}
		b := Bytes(recs, width)
		if !bytes.Equal(b, want.Bytes()) || len(b) != cap(b) {
			t.Errorf("width %d: Bytes differs from the twin or is not sized once (len %d, cap %d)", width, len(b), cap(b))
		}
	}
}

func TestSplitBytes(t *testing.T) {
	chunks := SplitBytes(100, 9)
	if len(chunks) != 9 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	if chunks[0].Begin != 0 || chunks[8].End != 100 {
		t.Errorf("chunks do not cover the file: %+v", chunks)
	}
	for i := 1; i < 9; i++ {
		if chunks[i].Begin != chunks[i-1].End {
			t.Errorf("gap between chunk %d and %d", i-1, i)
		}
	}
}

func randomRecords(rng *rand.Rand, n int) []Record {
	letters := "ARNDCQEGHILKMFPSTWYV"
	recs := make([]Record, n)
	for i := range recs {
		l := 1 + rng.Intn(120)
		seq := make([]byte, l)
		for j := range seq {
			seq[j] = letters[rng.Intn(len(letters))]
		}
		recs[i] = Record{ID: fmt.Sprintf("s%d", i), Seq: seq}
	}
	return recs
}

// The union of per-chunk parses must equal the sequential parse, in order,
// with no duplicates or gaps — the paper's guarantee that chunked parallel
// reading partitions the sequence set.
func TestChunkedParsePartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		recs := randomRecords(rng, 1+rng.Intn(60))
		width := []int{0, 11, 60}[rng.Intn(3)]
		data := Bytes(recs, width)
		p := 1 + rng.Intn(12)

		var merged []Record
		for _, c := range SplitBytes(int64(len(data)), p) {
			part, err := ParseChunk(data, c.Begin, c.End)
			if err != nil {
				t.Fatalf("trial %d chunk %d: %v", trial, c.Rank, err)
			}
			merged = append(merged, part...)
		}
		if len(merged) != len(recs) {
			t.Fatalf("trial %d (p=%d, width=%d): merged %d records, want %d",
				trial, p, width, len(merged), len(recs))
		}
		for i := range recs {
			if merged[i].ID != recs[i].ID || !bytes.Equal(merged[i].Seq, recs[i].Seq) {
				t.Fatalf("trial %d: record %d mismatch: %s vs %s",
					trial, i, merged[i].ID, recs[i].ID)
			}
		}
	}
}

// Property: chunked parsing never loses or duplicates records for any p.
func TestChunkedParseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)%40 + 1
		p := int(pRaw)%16 + 1
		recs := randomRecords(rng, n)
		data := Bytes(recs, 13)
		count := 0
		for _, c := range SplitBytes(int64(len(data)), p) {
			part, err := ParseChunk(data, c.Begin, c.End)
			if err != nil {
				return false
			}
			count += len(part)
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestParseChunkDegenerate(t *testing.T) {
	data := Bytes([]Record{{ID: "x", Seq: []byte("MKV")}}, 0)
	// begin beyond data
	recs, err := ParseChunk(data, int64(len(data)+5), int64(len(data)+9))
	if err != nil || recs != nil {
		t.Errorf("out-of-range chunk: %v, %v", recs, err)
	}
	// empty range
	recs, err = ParseChunk(data, 3, 3)
	if err != nil || recs != nil {
		t.Errorf("empty chunk: %v, %v", recs, err)
	}
}

func TestTotalSeqBytes(t *testing.T) {
	recs := []Record{{Seq: []byte("AAA")}, {Seq: []byte("BB")}}
	if got := TotalSeqBytes(recs); got != 5 {
		t.Errorf("TotalSeqBytes = %d, want 5", got)
	}
}
