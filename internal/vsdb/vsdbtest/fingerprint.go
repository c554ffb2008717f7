package vsdbtest

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/voxset/voxset/internal/vsdb"
)

// Fingerprint returns db's durable state as bytes: the paged snapshot
// SaveFile writes, which is a function of the logical state alone
// (configuration, ids, sets, epoch). Two databases holding the same state
// have equal fingerprints.
func Fingerprint(t testing.TB, db *vsdb.DB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fingerprint.vsnap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
