// Package index names the persistent target-index artifact: a wire
// container (internal/wire: checksum-framed named sections, atomic save,
// fingerprint/rank/ranks identity checks) under the index magic. A build
// writes one file per rank (`index-r<rank>.pidx`) plus one manifest
// (`index-manifest.pidx`, rank = ManifestRank) carrying the global sequence
// names and the build parameters; internal/core decides what the sections
// hold.
package index

import (
	"fmt"
	"path/filepath"

	"repro/internal/wire"
)

const (
	// Magic identifies an index file.
	Magic = "PASTISIX"
	// Version is the current format version; decoding rejects others.
	Version = 1
	// ManifestRank is the pseudo-rank of the manifest file, which carries
	// run-global data (sequence names, build parameters) rather than one
	// rank's matrix blocks.
	ManifestRank = -1
)

var format = wire.Format{Magic: Magic, Version: Version}

// File is one decoded index artifact and Section one of its named payloads.
type (
	File    = wire.File
	Section = wire.Section
)

// Decode parses and fully validates an encoded index file.
func Decode(buf []byte) (*File, error) { return format.Decode(buf) }

// Path returns the file path of rank's artifact in dir (the manifest for
// ManifestRank).
func Path(dir string, rank int) string {
	if rank == ManifestRank {
		return filepath.Join(dir, "index-manifest.pidx")
	}
	return filepath.Join(dir, fmt.Sprintf("index-r%d.pidx", rank))
}

// Save writes f atomically into dir and returns the encoded size.
func Save(dir string, f *File) (int64, error) { return format.Save(Path(dir, f.Rank), f) }

// Load reads and decodes rank's artifact from dir without identity checks
// (the manifest is loaded this way, before the expected fingerprint is
// known). Returns the file and its on-disk size.
func Load(dir string, rank int) (*File, int64, error) { return format.Load(Path(dir, rank)) }

// Open is Load plus the identity checks a rank performs before trusting an
// artifact: a directory holding an index built with different parameters,
// on a different grid, or with its rank files shuffled is rejected.
func Open(dir string, rank, ranks int, fingerprint uint64) (*File, int64, error) {
	return format.Open(Path(dir, rank), rank, ranks, fingerprint)
}
