package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// cacheModule lays out a two-package scratch module (pkg b imports
// pkg a) with one suppressed violation and one live one, so cached
// runs carry real diagnostics, not just empty entries.
func cacheModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module vmt\n\ngo 1.24\n",
		"internal/pcm/a.go": `package pcm

func Answer() int { return 42 }
`,
		"internal/cluster/b.go": `package cluster

import (
	"time"

	"vmt/internal/pcm"
)

func Stamp() int64 { return time.Now().UnixNano() + int64(pcm.Answer()) }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runCachedModule is one full cold-or-warm lint of the scratch module
// through a fresh loader, returning the loader (for Checked), the
// cache (for hit/miss counts), and the diagnostics.
func runCachedModule(t *testing.T, modDir, cacheDir string, strict bool) (*Loader, *Cache, []Diagnostic) {
	t.Helper()
	loader, err := NewLoader(modDir)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunCached(loader, cache, loader.ModulePackages(), Analyzers, strict)
	if err != nil {
		t.Fatal(err)
	}
	return loader, cache, diags
}

func diagStrings(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.String()
	}
	return out
}

// The satellite's acceptance test: a warm second run answers every
// package from the cache and performs zero parses and type-checks.
func TestCacheWarmRunSkipsTypeChecking(t *testing.T) {
	modDir := cacheModule(t)
	cacheDir := t.TempDir()

	cold, coldCache, coldDiags := runCachedModule(t, modDir, cacheDir, false)
	if cold.Checked() == 0 {
		t.Fatal("cold run should have type-checked packages")
	}
	if coldCache.Hits() != 0 || coldCache.Misses() != 2 {
		t.Fatalf("cold run: %d hits, %d misses, want 0/2", coldCache.Hits(), coldCache.Misses())
	}
	if len(coldDiags) != 1 || coldDiags[0].Analyzer != "detrand" {
		t.Fatalf("cold diagnostics = %v", diagStrings(coldDiags))
	}

	warm, warmCache, warmDiags := runCachedModule(t, modDir, cacheDir, false)
	if n := warm.Checked(); n != 0 {
		t.Fatalf("warm run type-checked %d packages, want 0", n)
	}
	if warmCache.Hits() != 2 || warmCache.Misses() != 0 {
		t.Fatalf("warm run: %d hits, %d misses, want 2/0", warmCache.Hits(), warmCache.Misses())
	}
	got, want := diagStrings(warmDiags), diagStrings(coldDiags)
	if len(got) != len(want) {
		t.Fatalf("warm diagnostics %v != cold %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("warm diagnostic %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// Editing a leaf dependency invalidates its dependents: touching
// internal/a re-keys both a and b, so both miss and re-check.
func TestCacheDependencyEditInvalidatesDependents(t *testing.T) {
	modDir := cacheModule(t)
	cacheDir := t.TempDir()
	runCachedModule(t, modDir, cacheDir, false)

	aPath := filepath.Join(modDir, "internal", "pcm", "a.go")
	if err := os.WriteFile(aPath, []byte("package pcm\n\nfunc Answer() int { return 43 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, cache, _ := runCachedModule(t, modDir, cacheDir, false)
	if cache.Hits() != 0 || cache.Misses() != 2 {
		t.Fatalf("after dep edit: %d hits, %d misses, want 0/2", cache.Hits(), cache.Misses())
	}
	if loader.Checked() != 2 {
		t.Fatalf("after dep edit: type-checked %d, want 2", loader.Checked())
	}
}

// Editing only the dependent leaves the dependency's entry warm: b
// misses (and type-checking it re-loads a), but a itself hits.
func TestCacheLeafEditLeavesDependencyWarm(t *testing.T) {
	modDir := cacheModule(t)
	cacheDir := t.TempDir()
	runCachedModule(t, modDir, cacheDir, false)

	bPath := filepath.Join(modDir, "internal", "cluster", "b.go")
	src := `package cluster

import "vmt/internal/pcm"

func Stamp() int64 { return int64(pcm.Answer()) }
`
	if err := os.WriteFile(bPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cache, diags := runCachedModule(t, modDir, cacheDir, false)
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Fatalf("after leaf edit: %d hits, %d misses, want 1/1", cache.Hits(), cache.Misses())
	}
	if len(diags) != 0 {
		t.Fatalf("fixed module still reports %v", diagStrings(diags))
	}
}

// The strict flag is part of the key: entries written by a default run
// cannot answer a -strict run, whose diagnostic set can differ.
func TestCacheStrictFlagSeparatesKeys(t *testing.T) {
	modDir := cacheModule(t)
	cacheDir := t.TempDir()
	runCachedModule(t, modDir, cacheDir, false)

	_, cache, _ := runCachedModule(t, modDir, cacheDir, true)
	if cache.Hits() != 0 || cache.Misses() != 2 {
		t.Fatalf("strict run against default cache: %d hits, %d misses, want 0/2", cache.Hits(), cache.Misses())
	}
}

// A corrupt entry is a miss, never an error and never stale output:
// the run recomputes, rewrites the entry, and the next run hits again.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	modDir := cacheModule(t)
	cacheDir := t.TempDir()
	runCachedModule(t, modDir, cacheDir, false)

	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache entries = %v (err %v), want 2", entries, err)
	}
	for _, e := range entries {
		if err := os.WriteFile(e, []byte("{torn write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, cache, diags := runCachedModule(t, modDir, cacheDir, false)
	if cache.Hits() != 0 || cache.Misses() != 2 {
		t.Fatalf("corrupt entries: %d hits, %d misses, want 0/2", cache.Hits(), cache.Misses())
	}
	if len(diags) != 1 {
		t.Fatalf("recomputed diagnostics = %v", diagStrings(diags))
	}
	_, cache, _ = runCachedModule(t, modDir, cacheDir, false)
	if cache.Hits() != 2 || cache.Misses() != 0 {
		t.Fatalf("after rewrite: %d hits, %d misses, want 2/0", cache.Hits(), cache.Misses())
	}
}

// Keys are stable across Keyer instances and loaders for unchanged
// sources — the property that makes the cache warm at all.
func TestKeyerStableAcrossLoaders(t *testing.T) {
	modDir := cacheModule(t)
	l1, err := NewLoader(modDir)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := NewLoader(modDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range l1.ModulePackages() {
		k1, err := NewKeyer(l1).Key(path, Analyzers, true)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := NewKeyer(l2).Key(path, Analyzers, true)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("%s: keys differ across loaders: %s vs %s", path, k1, k2)
		}
	}
	if l1.Checked() != 0 || l2.Checked() != 0 {
		t.Fatalf("keying type-checked packages (%d, %d), want 0", l1.Checked(), l2.Checked())
	}
}

// A type-error package surfaces as a TypeCheckError from the cached
// driver, and nothing is cached for it.
func TestRunCachedTypeError(t *testing.T) {
	modDir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":    "module scratch\n\ngo 1.24\n",
		"broken.go": "package scratch\n\nfunc Bad() int { return \"not an int\" }\n",
	} {
		if err := os.WriteFile(filepath.Join(modDir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(modDir)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCached(loader, cache, loader.ModulePackages(), Analyzers, false)
	terr, ok := err.(*TypeCheckError)
	if !ok {
		t.Fatalf("err = %v, want *TypeCheckError", err)
	}
	if terr.Path != "scratch" || len(terr.Errs) == 0 {
		t.Fatalf("TypeCheckError = %+v", terr)
	}
}
