package snapshot

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/voxset/voxset/internal/atomicfile"
)

// Sharded snapshot directories (DESIGN.md §9). A cluster persists one
// snapshot file per shard plus a manifest tying them together: the
// shard count (routing is fnv(id) mod N, so N is part of the data's
// identity — a directory cannot be reopened at a different width), the
// shared configuration every shard must agree on, and the per-shard
// epochs at save time. The manifest is JSON for inspectability; the
// per-shard payloads keep the checksummed binary snapshot format, so
// corruption detection is unchanged.

// ManifestName is the manifest file name inside a sharded snapshot
// directory.
const ManifestName = "MANIFEST.json"

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// ShardSnapshotName returns the canonical snapshot file name of shard i
// ("shard-0003.vsnap"). Save, load and crash-reopen all resolve shard
// files through it, so the naming cannot drift between writers and
// readers.
func ShardSnapshotName(i int) string { return fmt.Sprintf("shard-%04d.vsnap", i) }

// Manifest describes a sharded snapshot directory.
type Manifest struct {
	Version int       `json:"version"`
	Shards  int       `json:"shards"`
	Dim     int       `json:"dim"`
	MaxCard int       `json:"max_card"`
	Omega   []float64 `json:"omega"`
	// Epochs holds each shard's mutation sequence number at save time,
	// indexed by shard.
	Epochs []uint64 `json:"epochs"`
	// Files holds each shard's snapshot file name relative to the
	// directory, indexed by shard.
	Files []string `json:"files"`
}

func (m *Manifest) validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("%w: manifest version %d, want %d", ErrCorrupt, m.Version, ManifestVersion)
	}
	if m.Shards <= 0 {
		return fmt.Errorf("%w: manifest has %d shards", ErrCorrupt, m.Shards)
	}
	if len(m.Files) != m.Shards || len(m.Epochs) != m.Shards {
		return fmt.Errorf("%w: manifest lists %d files and %d epochs for %d shards",
			ErrCorrupt, len(m.Files), len(m.Epochs), m.Shards)
	}
	return nil
}

// WriteManifest writes the manifest into dir, atomically and durably
// (see atomicfile).
func WriteManifest(dir string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// ReadManifest reads and validates the manifest in dir. Malformed or
// inconsistent manifests are reported wrapping ErrCorrupt.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
