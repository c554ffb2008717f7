package core

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
)

// snapshot is the on-disk representation of an extracted dataset.
type snapshot struct {
	Config  Config
	Objects []*Object
}

// SaveObjects writes the engine's configuration and all extracted objects
// as a gzip-compressed gob stream. Feature extraction is the expensive
// part of the pipeline (voxelization + greedy covers); snapshots let the
// command-line tools reuse it across runs.
func (e *Engine) SaveObjects(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(snapshot{Config: e.cfg, Objects: e.objects}); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return zw.Close()
}

// LoadEngine reads a snapshot written by SaveObjects and reconstructs an
// engine with the stored configuration and objects.
func LoadEngine(r io.Reader) (*Engine, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading snapshot: %w", err)
	}
	defer zr.Close()
	var s snapshot
	if err := gob.NewDecoder(zr).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	e, err := NewEngine(s.Config)
	if err != nil {
		return nil, err
	}
	for i, o := range s.Objects {
		if o.ID != i {
			return nil, fmt.Errorf("core: snapshot object %d has id %d", i, o.ID)
		}
	}
	e.objects = s.Objects
	return e, nil
}
