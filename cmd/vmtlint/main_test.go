package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vmt/internal/lint"
)

// writeModule lays out a throwaway module on disk so the tests can
// exercise the real loader end to end.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
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

// TestRunCleanTree is the acceptance criterion in-process: the repo's
// own tree lints clean under -strict, exit 0, no output.
func TestRunCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(cwd, []string{"./..."}, true, false, "", false, &out, &errOut); code != 0 {
		t.Fatalf("run(./...) = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean tree printed diagnostics:\n%s", out.String())
	}
}

// TestRunReportsViolation reintroduces a violation in a scratch module
// and checks the exit code and diagnostic format.
func TestRunReportsViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module vmt\n\ngo 1.24\n",
		"internal/cluster/clock.go": `package cluster

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	var out, errOut bytes.Buffer
	if code := run(dir, []string{"./..."}, false, false, "", false, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	// Diagnostic contract: file:line: [analyzer] message, path relative
	// to the working directory.
	re := regexp.MustCompile(`(?m)^internal[/\\]cluster[/\\]clock\.go:5: \[detrand\] `)
	if !re.MatchString(out.String()) {
		t.Errorf("output does not match %q:\n%s", re, out.String())
	}
	if strings.Contains(out.String(), dir) {
		t.Errorf("diagnostic paths should be relative to the working directory:\n%s", out.String())
	}
}

// TestRunSuppressedViolation checks the allow comment flips the same
// tree back to exit 0.
func TestRunSuppressedViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module vmt\n\ngo 1.24\n",
		"internal/cluster/clock.go": `package cluster

import "time" //vmtlint:allow detrand scratch module: exercising suppression

//vmtlint:allow detrand scratch module: exercising suppression
func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	var out, errOut bytes.Buffer
	if code := run(dir, []string{"./..."}, false, false, "", false, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}

// TestRunStrictUnusedAllow: a stale allow is invisible to the default
// run but flips -strict to exit 1 with the allow's own position.
func TestRunStrictUnusedAllow(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module vmt\n\ngo 1.24\n",
		"internal/cluster/clean.go": `package cluster

//vmtlint:allow detrand the code this excused is long gone
func Stamp() int64 { return 42 }
`,
	})
	var out, errOut bytes.Buffer
	if code := run(dir, []string{"./..."}, false, false, "", false, &out, &errOut); code != 0 {
		t.Fatalf("default run = %d, want 0 (stale allows only matter under -strict)\nstdout:\n%s", code, out.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run(dir, []string{"./..."}, true, false, "", false, &out, &errOut); code != 1 {
		t.Fatalf("strict run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	re := regexp.MustCompile(`(?m)^internal[/\\]cluster[/\\]clean\.go:3: \[allow\] unused vmtlint:allow detrand`)
	if !re.MatchString(out.String()) {
		t.Errorf("output does not match %q:\n%s", re, out.String())
	}
}

func TestRunBadPattern(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  "module vmt\n\ngo 1.24\n",
		"main.go": "package vmt\n",
	})
	var out, errOut bytes.Buffer
	if code := run(dir, []string{"./nonexistent/..."}, false, false, "", false, &out, &errOut); code != 2 {
		t.Fatalf("run(bad pattern) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "matched no packages") {
		t.Errorf("stderr should explain the unmatched pattern, got:\n%s", errOut.String())
	}
}

// TestRunCacheWarm: with -cache, a second CLI run over an unchanged
// module answers every package from disk — zero misses, zero packages
// type-checked — while printing byte-identical diagnostics with the
// same exit code.
func TestRunCacheWarm(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module vmt\n\ngo 1.24\n",
		"internal/cluster/clock.go": `package cluster

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
		"internal/pcm/ok.go": "package pcm\n\nfunc Answer() int { return 42 }\n",
	})
	cacheDir := filepath.Join(t.TempDir(), "lintcache")
	var coldOut, coldErr bytes.Buffer
	if code := run(dir, []string{"./..."}, false, false, cacheDir, true, &coldOut, &coldErr); code != 1 {
		t.Fatalf("cold run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, coldOut.String(), coldErr.String())
	}
	if !strings.Contains(coldErr.String(), "cache 0 hits, 2 misses") {
		t.Errorf("cold stats missing, stderr:\n%s", coldErr.String())
	}
	var warmOut, warmErr bytes.Buffer
	if code := run(dir, []string{"./..."}, false, false, cacheDir, true, &warmOut, &warmErr); code != 1 {
		t.Fatalf("warm run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, warmOut.String(), warmErr.String())
	}
	if !strings.Contains(warmErr.String(), "cache 2 hits, 0 misses, 0 packages type-checked") {
		t.Errorf("warm run should skip all type-checking, stderr:\n%s", warmErr.String())
	}
	if warmOut.String() != coldOut.String() {
		t.Errorf("warm diagnostics differ from cold:\ncold:\n%s\nwarm:\n%s", coldOut.String(), warmOut.String())
	}
}

func TestRunOutsideModule(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(dir, nil, false, false, "", false, &out, &errOut); code != 2 {
		t.Fatalf("run outside a module = %d, want 2\nstderr:\n%s", code, errOut.String())
	}
}

// TestRunJSON pins the CLI side of the NDJSON contract: one object per
// line, paths relative to the working directory, suppressed findings
// kept with allowed:true, and the exit code still driven by live
// diagnostics only.
func TestRunJSON(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module vmt\n\ngo 1.24\n",
		"internal/cluster/clock.go": `package cluster

import "time"

func Stamp() int64 { return time.Now().UnixNano() }

func Waived() int64 { return time.Now().UnixNano() } //vmtlint:allow detrand scratch module: exercising json output
`,
	})
	var out, errOut bytes.Buffer
	if code := run(dir, []string{"./..."}, false, true, "", false, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	diags, err := lint.ReadJSON(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("output is not valid NDJSON: %v\n%s", err, out.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (one live, one allowed):\n%s", len(diags), out.String())
	}
	var live, allowed int
	for _, d := range diags {
		if d.Analyzer != "detrand" {
			t.Errorf("analyzer = %q, want detrand", d.Analyzer)
		}
		if filepath.IsAbs(d.Position.Filename) || strings.Contains(d.Position.Filename, dir) {
			t.Errorf("path should be relative to the working directory: %q", d.Position.Filename)
		}
		if d.Allowed {
			allowed++
		} else {
			live++
		}
	}
	if live != 1 || allowed != 1 {
		t.Errorf("got %d live + %d allowed, want 1 + 1:\n%s", live, allowed, out.String())
	}
}

// TestRunJSONCleanExitZero: a tree whose only finding is suppressed
// still streams that finding but exits 0.
func TestRunJSONCleanExitZero(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module vmt\n\ngo 1.24\n",
		"internal/cluster/clock.go": `package cluster

import "time"

func Waived() int64 { return time.Now().UnixNano() } //vmtlint:allow detrand scratch module: waiver-only tree
`,
	})
	var out, errOut bytes.Buffer
	if code := run(dir, []string{"./..."}, false, true, "", false, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	diags, err := lint.ReadJSON(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !diags[0].Allowed {
		t.Fatalf("want exactly one allowed finding in the stream, got: %+v", diags)
	}
}
