// Command seglint runs the repository's static-analysis passes
// (internal/analysis; `seglint -h` lists them, DESIGN.md §5 audits them)
// over the module's packages, one package at a time in package order. It
// exits 1 when any diagnostic survives the //seglint:allow directives and
// 2 when a package fails to load:
//
//	go run ./cmd/seglint ./...
//
// Patterns follow the usual go tool forms: "./...", "./internal/...",
// "./internal/geom", or fully qualified import paths.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"segidx/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: seglint [packages]\n\npasses:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	n, err := run(patterns, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seglint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "seglint: %d issue(s)\n", n)
		os.Exit(1)
	}
}

// run loads every module package matching the patterns, applies the
// analyzers, prints diagnostics to out, and returns the diagnostic count.
func run(patterns []string, out io.Writer) (int, error) {
	root, modPath, err := analysis.FindModuleRoot(".")
	if err != nil {
		return 0, err
	}
	loader := analysis.NewLoader(root, modPath)
	all, err := loader.Packages()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, pkgPath := range all {
		if !slices.ContainsFunc(patterns, func(pat string) bool { return loader.Match(pkgPath, pat) }) {
			continue
		}
		pkg, err := loader.Load(pkgPath)
		if err != nil {
			return n, err
		}
		for _, d := range analysis.Run(pkg, analysis.Analyzers()) {
			fmt.Fprintln(out, d)
			n++
		}
	}
	return n, nil
}
