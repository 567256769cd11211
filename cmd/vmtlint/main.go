// Command vmtlint runs the repo's domain static analyzers — the
// determinism and cache-soundness invariants the simulator's results
// rest on — over the module's packages. Standard library only: the
// driver is internal/lint, built on go/parser, go/types, and
// go/importer, with standard-library export data from one
// `go list -export` per run.
//
// Usage:
//
//	vmtlint [-list] [-strict] [-json] [pattern ...]
//
// Patterns are package directories relative to the working directory:
// "./..." (or no arguments) lints every package in the module,
// "./internal/cluster" one package, "./internal/..." a subtree. Import
// paths ("vmt/internal/cluster") work too.
//
// Diagnostics print as "file:line: [analyzer] message". With -json
// they print as NDJSON instead — one
// {"file","line","col","analyzer","message","allowed"} object per line
// — and include suppressed findings with "allowed": true, so CI can
// track the waiver inventory. Exit status is 0 for a clean tree, 1 if
// any unsuppressed diagnostic was reported (in either output mode),
// and 2 for usage or load errors. Suppress a finding with a trailing
// or preceding comment:
//
//	//vmtlint:allow <analyzer> <reason>
//
// The reason is mandatory; malformed suppressions are diagnostics
// themselves. With -strict, an allow that suppresses nothing — stale
// after the code it excused drifted away — is also a diagnostic, so
// the inventory of sanctioned exceptions can never quietly outgrow
// the code.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vmt/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	strict := flag.Bool("strict", false, "also report //vmtlint:allow directives that suppress nothing")
	jsonOut := flag.Bool("json", false, "print diagnostics as NDJSON (includes allowed findings)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vmtlint [-list] [-strict] [-json] [pattern ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmtlint:", err)
		os.Exit(2)
	}
	os.Exit(run(cwd, flag.Args(), *strict, *jsonOut, os.Stdout, os.Stderr))
}

// run is the testable driver body: lint the packages of the module
// containing dir that match the patterns, print diagnostics to out,
// and return the process exit code.
func run(dir string, patterns []string, strict, jsonOut bool, out, errOut io.Writer) int {
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(errOut, "vmtlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(errOut, "vmtlint:", err)
		return 2
	}
	paths, err := selectPackages(loader, dir, patterns)
	if err != nil {
		fmt.Fprintln(errOut, "vmtlint:", err)
		return 2
	}
	diags, err := lint.RunModule(loader, paths, lint.Analyzers, strict)
	if err != nil {
		// Lint runs on code that already builds; type errors mean the
		// loader's import environment is broken, and linting
		// half-typed code would silently miss findings.
		var terr *lint.TypeCheckError
		if errors.As(err, &terr) {
			fmt.Fprintf(errOut, "vmtlint: type-checking %s failed:\n", terr.Path)
			for i, te := range terr.Errs {
				if i == 5 {
					fmt.Fprintf(errOut, "\t... and %d more\n", len(terr.Errs)-i)
					break
				}
				fmt.Fprintf(errOut, "\t%v\n", te)
			}
			return 2
		}
		fmt.Fprintln(errOut, "vmtlint:", err)
		return 2
	}
	// RunModule returns suppressed findings too (Allowed=true): the
	// JSON stream keeps them for CI, the text view and the exit code
	// see only live ones.
	live := lint.Live(diags)
	if jsonOut {
		rel := make([]lint.Diagnostic, len(diags))
		for i, d := range diags {
			rel[i] = d
			if r, err := filepath.Rel(dir, d.Position.Filename); err == nil && !strings.HasPrefix(r, "..") {
				rel[i].Position.Filename = r
			}
		}
		if err := lint.WriteJSON(out, rel); err != nil {
			fmt.Fprintln(errOut, "vmtlint:", err)
			return 2
		}
	} else {
		for _, d := range live {
			file := d.Position.Filename
			if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
			fmt.Fprintf(out, "%s:%d: [%s] %s\n", file, d.Position.Line, d.Analyzer, d.Message)
		}
	}
	if len(live) > 0 {
		return 1
	}
	return 0
}

// selectPackages resolves CLI patterns to module import paths. An
// empty pattern list or "./..." selects the whole module.
func selectPackages(loader *lint.Loader, dir string, patterns []string) ([]string, error) {
	all := loader.ModulePackages()
	if len(patterns) == 0 {
		return all, nil
	}
	seen := map[string]bool{}
	var selected []string
	for _, pat := range patterns {
		matched := false
		for _, p := range all {
			if !matchPattern(loader, dir, pat, p) {
				continue
			}
			matched = true
			if !seen[p] {
				seen[p] = true
				selected = append(selected, p)
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return selected, nil
}

// matchPattern reports whether the import path pkg matches pat. pat is
// either an import-path pattern ("vmt/internal/...") or a directory
// pattern relative to dir ("./...", "./internal/cluster").
func matchPattern(loader *lint.Loader, dir, pat, pkg string) bool {
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		if pathMatches(loader, dir, rest, pkg) {
			return true
		}
		// "./..." also matches subpackages of the named directory.
		prefix := resolvePattern(loader, dir, rest)
		return prefix != "" && strings.HasPrefix(pkg, prefix+"/")
	}
	return pathMatches(loader, dir, pat, pkg)
}

func pathMatches(loader *lint.Loader, dir, pat, pkg string) bool {
	return resolvePattern(loader, dir, pat) == pkg
}

// resolvePattern turns a pattern stem into an import path: import
// paths pass through, directory forms resolve against the module root.
func resolvePattern(loader *lint.Loader, dir, pat string) string {
	if pat == "" || pat == "." {
		pat = "./."
	}
	if !strings.HasPrefix(pat, "./") && !strings.HasPrefix(pat, "../") && !filepath.IsAbs(pat) {
		return pat // already an import path
	}
	abs := pat
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(dir, pat)
	}
	rel, err := filepath.Rel(loader.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return ""
	}
	if rel == "." {
		return loader.ModulePath
	}
	return loader.ModulePath + "/" + filepath.ToSlash(rel)
}
