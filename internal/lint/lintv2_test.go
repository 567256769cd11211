package lint

// Tests for the module-wide semantic analyzers: interprocedural
// determinism taint, the //vmt:hotpath allocation discipline, the
// //vmt:kernel parity checker (including a one-token mutation of the
// real thermal kernels), the //vmt: directive grammar, and the NDJSON
// round trip.

import (
	"bytes"
	"errors"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHotpathFixture(t *testing.T)      { lintFixture(t, "hotpath", Hotpath) }
func TestKernelParityFixture(t *testing.T) { lintFixture(t, "kernelparity", KernelParity) }

// TestDirectiveBadFixture pins the //vmt: grammar diagnostics: no
// analyzers run, every finding comes from the allow pseudo-analyzer.
func TestDirectiveBadFixture(t *testing.T) { lintFixture(t, "directivebad") }

// TestDetrandTaintFixture exercises the cross-package taint pass: the
// dep fixture is loaded into the same loader first so the consumer's
// import resolves, then only the consumer is linted.
func TestDetrandTaintFixture(t *testing.T) {
	loader := testLoader(t)
	if _, err := loader.LoadDir(filepath.Join("testdata", "src", "detrandtaintdep"), "fixture/detrandtaintdep"); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "detrandtaint"), "fixture/detrandtaint")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture has type errors: %v", pkg.TypeErrors)
	}
	diffWants(t, pkg, RunUnscoped(pkg, []*Analyzer{Detrand}))
}

// loadThermalOverlay reads the real internal/thermal sources (non-test
// files) into an overlay map for in-memory mutation.
func loadThermalOverlay(t *testing.T) map[string]string {
	t.Helper()
	dir := filepath.Join("..", "thermal")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Join(dir, name)] = string(src)
	}
	return files
}

// TestKernelParityRealTree verifies the shipped invariant: the thermal
// package's substep kernels (the Node.Step oracle and the stepLanes
// mirror) are structurally equivalent, so kernelparity stays silent.
func TestKernelParityRealTree(t *testing.T) {
	loader := testLoader(t)
	pkg, err := loader.LoadFiles("vmt/internal/thermal", loadThermalOverlay(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	for _, d := range RunUnscoped(pkg, []*Analyzer{KernelParity}) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestKernelParityCatchesMutation flips one token in stepLanes's
// mirror lane body and demands kernelparity name the exact divergent
// position — the property the bit-identity story rests on.
func TestKernelParityCatchesMutation(t *testing.T) {
	files := loadThermalOverlay(t)
	fleet := filepath.Join("..", "thermal", "fleet.go")
	const orig = "waxHV[j] += toWax * subSec"
	const mutated = "waxHV[j] += toRoom * subSec"
	src, ok := files[fleet]
	if !ok || !strings.Contains(src, orig) {
		t.Fatalf("fleet.go no longer contains %q; update the mutation test", orig)
	}
	files[fleet] = strings.Replace(src, orig, mutated, 1)

	// Expected position: the mutated operand's line and column.
	wantLine, wantCol := 0, 0
	for i, line := range strings.Split(files[fleet], "\n") {
		if idx := strings.Index(line, mutated); idx >= 0 {
			wantLine = i + 1
			wantCol = idx + strings.Index(mutated, "toRoom") + 1
			break
		}
	}

	loader := testLoader(t)
	pkg, err := loader.LoadFiles("vmt/internal/thermal", files)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	diags := RunUnscoped(pkg, []*Analyzer{KernelParity})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "kernelparity" {
		t.Errorf("analyzer = %q, want kernelparity", d.Analyzer)
	}
	if !strings.Contains(d.Message, `kernel group "substep" diverges from oracle`) {
		t.Errorf("message does not name the divergence: %s", d.Message)
	}
	if !strings.Contains(d.Message, `"v1" here, "v5" in the oracle`) {
		t.Errorf("message does not pin the divergent atoms: %s", d.Message)
	}
	if d.Position.Line != wantLine || d.Position.Column != wantCol {
		t.Errorf("diagnostic at %d:%d, want %d:%d (the mutated operand)",
			d.Position.Line, d.Position.Column, wantLine, wantCol)
	}
}

// TestJSONRoundTrip pins the NDJSON wire format: one object per line,
// and ReadJSON(WriteJSON(x)) == x field for field.
func TestJSONRoundTrip(t *testing.T) {
	in := []Diagnostic{
		{
			Position: token.Position{Filename: "internal/sim/clock.go", Line: 5, Column: 27},
			Analyzer: "detrand",
			Message:  `time.Now reads the wall clock; "quoted" and → unicode survive`,
		},
		{
			Position: token.Position{Filename: "session.go", Line: 283, Column: 3},
			Analyzer: "detrand",
			Message:  "telemetry.Band.Begin transitively reaches time.Now",
			Allowed:  true,
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(in) {
		t.Fatalf("got %d NDJSON lines, want %d:\n%s", len(lines), len(in), buf.String())
	}
	for _, line := range lines {
		if strings.ContainsAny(line, "\r") || !strings.HasPrefix(line, "{") {
			t.Errorf("line is not a bare JSON object: %q", line)
		}
	}
	out, err := ReadJSON(strings.NewReader(buf.String() + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip returned %d diagnostics, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("diagnostic %d round-tripped to %+v, want %+v", i, out[i], in[i])
		}
	}
	if _, err := ReadJSON(strings.NewReader("{not json}\n")); err == nil {
		t.Error("ReadJSON accepted malformed input")
	}
}

// FuzzParseHotpathComment holds the hotpath directive parser to its
// contract: never panic, classify non-comments and foreign verbs as
// not-a-directive, reject arguments, and stay deterministic.
func FuzzParseHotpathComment(f *testing.F) {
	f.Add("//vmt:hotpath")
	f.Add("//vmt:hotpath extra")
	f.Add("//vmt:kernel substep oracle")
	f.Add("// vmt:hotpath")
	f.Add("/* vmt:hotpath */")
	f.Add("// plain comment")
	f.Add("//")
	f.Add("")
	f.Add("//vmt:hotpath\t")
	f.Fuzz(func(t *testing.T, raw string) {
		err := ParseHotpathComment(raw)
		err2 := ParseHotpathComment(raw)
		if (err == nil) != (err2 == nil) || (err != nil && err2 != nil && err.Error() != err2.Error()) {
			t.Fatalf("non-deterministic: %v vs %v", err, err2)
		}
		if !strings.HasPrefix(raw, "//") && !strings.HasPrefix(raw, "/*") && !errors.Is(err, ErrNotDirective) {
			t.Fatalf("non-comment %q classified as directive material: %v", raw, err)
		}
		if err == nil {
			body := strings.TrimSpace(strings.TrimPrefix(raw, "//"))
			if !strings.HasPrefix(body, "vmt:hotpath") {
				t.Fatalf("accepted %q as a hotpath directive", raw)
			}
		}
	})
}

// FuzzParseKernelComment holds the kernel directive parser to its
// contract: never panic, only well-formed group/role/begin (or bare
// end) parses, parsed groups are always valid identifiers, and the
// parse is deterministic.
func FuzzParseKernelComment(f *testing.F) {
	f.Add("//vmt:kernel substep oracle")
	f.Add("//vmt:kernel substep mirror begin")
	f.Add("//vmt:kernel end")
	f.Add("//vmt:kernel")
	f.Add("//vmt:kernel substep")
	f.Add("//vmt:kernel end oracle")
	f.Add("//vmt:kernel sub.step oracle")
	f.Add("//vmt:kernel substep driver")
	f.Add("//vmt:kernel substep oracle begin now")
	f.Add("// vmt:kernel substep oracle")
	f.Add("/* vmt:kernel substep oracle */")
	f.Add("//vmt:hotpath")
	f.Add("// plain comment")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		d, err := ParseKernelComment(raw)
		d2, err2 := ParseKernelComment(raw)
		if d != d2 || (err == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic: (%+v,%v) vs (%+v,%v)", d, err, d2, err2)
		}
		if !strings.HasPrefix(raw, "//") && !strings.HasPrefix(raw, "/*") && !errors.Is(err, ErrNotDirective) {
			t.Fatalf("non-comment %q classified as directive material: %v", raw, err)
		}
		if err != nil {
			if d != (KernelDirective{}) {
				t.Fatalf("error path leaked directive %+v from %q", d, raw)
			}
			return
		}
		if d.End {
			if d.Group != "" || d.Role != "" || !d.Region {
				t.Fatalf("malformed end directive %+v from %q", d, raw)
			}
			return
		}
		if !validKernelGroup(d.Group) || d.Group == "end" {
			t.Fatalf("accepted invalid group %q from %q", d.Group, raw)
		}
		if d.Role != kernelRoleOracle && d.Role != kernelRoleMirror {
			t.Fatalf("accepted invalid role %q from %q", d.Role, raw)
		}
	})
}
