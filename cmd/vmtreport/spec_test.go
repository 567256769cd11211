package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestEmittedSpecsMatchCommitted requires the spec files committed
// under results/specs to be exactly what -emit-specs writes, so the
// built-in studies and their declarative copies cannot drift apart.
func TestEmittedSpecsMatchCommitted(t *testing.T) {
	dir := t.TempDir()
	if err := emitSpecFiles(dir, 100); err != nil {
		t.Fatal(err)
	}
	committed, err := filepath.Glob(filepath.Join("..", "..", "results", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	emitted, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(committed) {
		t.Errorf("-emit-specs writes %d files, results/specs holds %d", len(emitted), len(committed))
	}
	for _, path := range committed {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, filepath.Base(path)))
		if err != nil {
			t.Errorf("%s is not emitted: %v", filepath.Base(path), err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from its -emit-specs output; regenerate with vmtreport -emit-specs results/specs",
				filepath.Base(path))
		}
	}
}
