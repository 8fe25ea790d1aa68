package wire

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Format names one kind of container file. Every artifact the pipeline
// persists — the per-rank index files and manifest, the per-wave
// checkpoints — is a container under its own magic and version, so all of
// them share one layout, one set of decode checks and one atomic writer:
//
//	magic | version | fingerprint | rank (two's complement) |
//	ranks | nmeta | nmeta × (keyLen, key, value) |
//	nsections | nsections × (nameLen, name, payloadLen, payload) |
//	checksum (Checksum of everything before it)
//
// with every integer a little-endian u64. The container is oblivious to what
// the sections hold, so the framing is fuzzed once, in isolation.
type Format struct {
	Magic   string
	Version uint64 // decoding rejects any other
}

// Section is one named payload of a container file.
type Section struct {
	Name    string
	Payload []byte
}

// File is the decoded form of one container file.
type File struct {
	Fingerprint uint64 // identity of the run that wrote it
	Rank        int    // owning rank (or a pseudo-rank such as index.ManifestRank)
	Ranks       int    // cluster size of the run that wrote it
	Meta        map[string]uint64
	Sections    []Section
}

// Section returns the payload of the named section.
func (f *File) Section(name string) ([]byte, bool) {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return f.Sections[i].Payload, true
		}
	}
	return nil, false
}

// Encode renders f with the trailing checksum. Meta keys are written in
// sorted order, so the encoding is deterministic.
func (fm Format) Encode(f *File) []byte {
	keys := make([]string, 0, len(f.Meta))
	for k := range f.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	buf := []byte(fm.Magic)
	buf = AppendU64(buf, fm.Version)
	buf = AppendU64(buf, f.Fingerprint)
	buf = AppendU64(buf, uint64(int64(f.Rank)))
	buf = AppendU64(buf, uint64(f.Ranks))
	buf = AppendU64(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = AppendString(buf, k)
		buf = AppendU64(buf, f.Meta[k])
	}
	buf = AppendU64(buf, uint64(len(f.Sections)))
	for _, s := range f.Sections {
		buf = AppendString(buf, s.Name)
		buf = AppendBytes(buf, s.Payload)
	}
	return AppendU64(buf, Checksum(ChecksumInit, buf))
}

// Decode parses and validates an encoded file: magic, trailer checksum
// (verified first, so every later field is trustworthy), version, and exact
// length — trailing bytes after the last section are rejected, as is any
// count or length that overruns the buffer. Section payloads alias buf.
// Errors name the format by its magic.
func (fm Format) Decode(buf []byte) (*File, error) {
	f, err := fm.decode(buf)
	if err != nil {
		return nil, fmt.Errorf("%s file: %w", fm.Magic, err)
	}
	return f, nil
}

func (fm Format) decode(buf []byte) (*File, error) {
	if len(buf) < len(fm.Magic)+16 || string(buf[:len(fm.Magic)]) != fm.Magic {
		return nil, errors.New("wrong magic or too short")
	}
	body := buf[:len(buf)-8]
	if stored, got := U64(buf[len(body):]), Checksum(ChecksumInit, body); stored != got {
		return nil, fmt.Errorf("checksum mismatch (stored %#x, computed %#x)", stored, got)
	}
	r := NewReader(body[len(fm.Magic):])
	if v := r.U64(); v != fm.Version {
		return nil, fmt.Errorf("version %d, want %d", v, fm.Version)
	}
	f := &File{
		Fingerprint: r.U64(),
		Rank:        int(int64(r.U64())),
		Ranks:       int(r.U64()),
	}
	if nmeta := r.Count(16); nmeta > 0 {
		f.Meta = make(map[string]uint64, nmeta)
		for i := 0; i < nmeta; i++ {
			key := r.String()
			if _, dup := f.Meta[key]; dup && r.Err() == nil {
				return nil, fmt.Errorf("duplicate meta key %q", key)
			}
			f.Meta[key] = r.U64()
		}
	}
	for i, nsec := 0, r.Count(16); i < nsec; i++ {
		f.Sections = append(f.Sections, Section{Name: r.String(), Payload: r.Bytes()})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// Save writes f to path atomically — temp file, then rename, so a torn
// write never replaces a good artifact — creating the directory if needed.
// It returns the encoded size, which callers charge to the virtual IO clock.
func (fm Format) Save(path string, f *File) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	buf := fm.Encode(f)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return int64(len(buf)), nil
}

// Load reads and decodes the file at path without identity checks. It
// returns the file and its on-disk size.
func (fm Format) Load(path string) (*File, int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	f, err := fm.Decode(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return f, int64(len(buf)), nil
}

// Open is Load plus the identity checks a rank performs before trusting an
// artifact: the stored fingerprint, rank and cluster size must match this
// run's. A mismatched fingerprint means the file was written under different
// parameters (or different data) and must be rejected, not reinterpreted.
func (fm Format) Open(path string, rank, ranks int, fingerprint uint64) (*File, int64, error) {
	f, size, err := fm.Load(path)
	if err != nil {
		return nil, 0, err
	}
	switch {
	case f.Fingerprint != fingerprint:
		err = fmt.Errorf("fingerprint %#x does not match this run's %#x (different parameters, input or grid)",
			f.Fingerprint, fingerprint)
	case f.Rank != rank:
		err = fmt.Errorf("written by rank %d, opened as rank %d", f.Rank, rank)
	case f.Ranks != ranks:
		err = fmt.Errorf("written on %d ranks, opened on %d", f.Ranks, ranks)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return f, size, nil
}
