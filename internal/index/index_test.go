package index

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/testutil"
	"repro/internal/wire"
)

func sampleFile() *File {
	return &File{
		Fingerprint: 0xdeadbeefcafef00d,
		Rank:        3,
		Ranks:       16,
		Meta:        map[string]uint64{"total": 1234, "k": 6, "subs": 25},
		Sections: []Section{
			{Name: "at", Payload: []byte("block bytes here")},
			{Name: "seq", Payload: []byte{}},
			{Name: "nbr", Payload: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, f := range []*File{
		sampleFile(),
		{Fingerprint: 1, Rank: ManifestRank, Ranks: 4},
		{Rank: 0, Ranks: 1, Sections: []Section{{Name: "", Payload: nil}}},
	} {
		enc := Encode(f)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("valid encoding rejected: %v", err)
		}
		if got.Fingerprint != f.Fingerprint || got.Rank != f.Rank || got.Ranks != f.Ranks {
			t.Fatalf("header drifted: got %+v want %+v", got, f)
		}
		if len(got.Meta) != len(f.Meta) {
			t.Fatalf("meta drifted: got %v want %v", got.Meta, f.Meta)
		}
		for k, v := range f.Meta {
			if got.Meta[k] != v {
				t.Fatalf("meta[%q] = %d, want %d", k, got.Meta[k], v)
			}
		}
		if len(got.Sections) != len(f.Sections) {
			t.Fatalf("section count drifted: %d vs %d", len(got.Sections), len(f.Sections))
		}
		for i := range f.Sections {
			if got.Sections[i].Name != f.Sections[i].Name ||
				!reflect.DeepEqual(append([]byte{}, got.Sections[i].Payload...),
					append([]byte{}, f.Sections[i].Payload...)) {
				t.Fatalf("section %d drifted", i)
			}
		}
		// Deterministic: re-encoding the decoded file is byte-identical.
		if re := Encode(got); !reflect.DeepEqual(re, enc) {
			t.Fatalf("re-encoding differs: %d vs %d bytes", len(re), len(enc))
		}
	}
}

// The container under the index magic, held to the shared hardening
// contract: truncations, bit flips and trailing bytes are all rejected, and
// whatever decodes re-encodes byte-identically.
func TestDecodeHardening(t *testing.T) {
	for _, f := range []*File{sampleFile(), {Rank: ManifestRank, Ranks: 9}} {
		testutil.Hardening(t, Encode(f), func(buf []byte) ([]byte, error) {
			got, err := Decode(buf)
			if err != nil {
				return nil, err
			}
			return Encode(got), nil
		})
	}
}

// Trailing bytes after the last section mean the file is not exactly the
// codec's image and must be rejected even when the checksum is forged over
// the longer buffer (plain appends already fail the checksum).
func TestDecodeTrailingBytes(t *testing.T) {
	full := Encode(sampleFile())
	forged := append(append([]byte{}, full[:len(full)-8]...), 0xab)
	forged = wire.AppendU64(forged, wire.Checksum(wire.ChecksumInit, forged))
	if _, err := Decode(forged); err == nil {
		t.Fatal("payload with trailing bytes decoded without error")
	}
}

func TestSaveOpen(t *testing.T) {
	dir := t.TempDir()
	f := sampleFile()
	size, err := Save(dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(Path(dir, f.Rank)); err != nil || st.Size() != size {
		t.Fatalf("stat %v size %v, want size %d", err, st, size)
	}
	got, gotSize, err := Open(dir, f.Rank, f.Ranks, f.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if gotSize != size || got.Rank != f.Rank {
		t.Fatalf("opened size %d rank %d, want %d/%d", gotSize, got.Rank, size, f.Rank)
	}
	if p, ok := got.Section("at"); !ok || string(p) != "block bytes here" {
		t.Fatalf("section at = %q, %v", p, ok)
	}

	// Identity checks: wrong fingerprint, wrong rank slot, wrong cluster size.
	if _, _, err := Open(dir, f.Rank, f.Ranks, f.Fingerprint+1); err == nil {
		t.Fatal("mismatched fingerprint accepted")
	}
	if err := os.Rename(Path(dir, f.Rank), Path(dir, f.Rank+1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, f.Rank+1, f.Ranks, f.Fingerprint); err == nil {
		t.Fatal("rank-shuffled file accepted")
	}
	if err := os.Rename(Path(dir, f.Rank+1), Path(dir, f.Rank)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, f.Rank, f.Ranks+9, f.Fingerprint); err == nil {
		t.Fatal("mismatched cluster size accepted")
	}

	// No stray temp files remain and the manifest path is distinct.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	if Path(dir, ManifestRank) == Path(dir, 0) {
		t.Fatal("manifest path collides with rank 0")
	}
}

// FuzzIndexCodecRoundTrip drives the index decoder with arbitrary bytes: it
// must never panic, and whenever it accepts a payload the re-encoding must
// be byte-identical (the decoder admits exactly the codec's image). Mirrors
// FuzzBlockCodecRoundTrip for the block wire format.
func FuzzIndexCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(Encode(sampleFile()))
	f.Add(Encode(&File{Rank: ManifestRank, Ranks: 9}))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Decode(data)
		if err != nil {
			return // rejected cleanly: fine
		}
		re := Encode(file)
		if !reflect.DeepEqual(re, data) {
			t.Fatalf("accepted payload does not round-trip: %d bytes in, %d bytes out", len(data), len(re))
		}
	})
}
