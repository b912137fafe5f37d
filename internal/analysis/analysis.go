// Package analysis is a small, dependency-free static-analysis framework
// for this repository, in the spirit of golang.org/x/tools/go/analysis but
// built entirely on the standard library's go/ast, go/parser, and go/types
// (the container this repo builds in has no module network access).
//
// It provides a Loader that parses and type-checks the module's packages
// from source (loader.go); an Analyzer abstraction with typed Pass state
// and positioned Diagnostics; a CFG and dataflow layer for the
// flow-sensitive passes (cfg.go, dataflow.go); the repo's passes, listed
// by Analyzers and audited in DESIGN.md §5; and a directive mechanism,
// "//seglint:allow <name>[,<name>...] — reason", that suppresses a named
// analyzer on the directive's line, on the line below it, or — when the
// directive appears in a function's doc comment — throughout that
// function. Every suppression is expected to carry a rationale so
// exceptions stay auditable, and a directive naming no pass is itself a
// diagnostic.
//
// cmd/seglint runs the passes; its TestRepoIsClean keeps the module clean
// under go test.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and directives.
	Name string
	// Doc is a one-line description shown by the driver's usage text.
	Doc string
	// Run inspects one type-checked package and reports diagnostics
	// through the pass.
	Run func(*Pass)
	// AppliesTo restricts the packages the driver runs the pass on; nil
	// means every package. Tests bypass it by calling Run directly.
	AppliesTo func(pkgPath string) bool
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	PkgPath  string
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers lists every pass the driver runs, in reporting order. DESIGN.md
// §5 has one row per pass: its discipline, its directives, and what else
// would catch a violation.
func Analyzers() []*Analyzer {
	return []*Analyzer{Locks, ErrCheckLite, NodePanic, PinBalance}
}

// Run executes the given analyzers over a loaded package, drops findings
// suppressed by //seglint:allow directives, and returns the survivors
// sorted by position. Analyzers whose AppliesTo filter rejects the package
// are skipped.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var selected []*Analyzer
	for _, a := range analyzers {
		if a.AppliesTo == nil || a.AppliesTo(pkg.PkgPath) {
			selected = append(selected, a)
		}
	}
	return RunUnfiltered(pkg, selected)
}

// RunUnfiltered is Run without the AppliesTo package filters; fixture tests
// use it to exercise analyzers on synthetic packages.
func RunUnfiltered(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			PkgPath:  pkg.PkgPath,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	sup := buildSuppressions(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.allows(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, sup.unknown...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return kept
}

// directiveRe matches a "//seglint:allow name" or "//seglint:allow
// name1,name2" comment, optionally followed by a rationale.
var directiveRe = regexp.MustCompile(`^//seglint:allow\s+(\S+)`)

// suppressions indexes //seglint:allow directives: per file, the analyzer
// names allowed on each line.
type suppressions struct {
	byLine  map[string]map[int]map[string]bool
	unknown []Diagnostic // directives naming no pass
}

func (s *suppressions) allow(file string, line int, names []string) {
	if s.byLine[file] == nil {
		s.byLine[file] = make(map[int]map[string]bool)
	}
	if s.byLine[file][line] == nil {
		s.byLine[file][line] = make(map[string]bool)
	}
	for _, n := range names {
		s.byLine[file][line][n] = true
	}
}

func (s *suppressions) allows(d Diagnostic) bool {
	return s.byLine[d.Pos.Filename][d.Pos.Line][d.Analyzer]
}

// buildSuppressions scans comments for directives. A directive suppresses
// its own line and the following line; a directive inside a function's doc
// comment suppresses the function's whole body.
func buildSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	sup := &suppressions{byLine: make(map[string]map[int]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := directiveNames(c.Text)
				if names == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, n := range names {
					if !known[n] {
						sup.unknown = append(sup.unknown, Diagnostic{Pos: pos, Analyzer: "seglint",
							Message: fmt.Sprintf("//seglint:allow names %q, which is not a pass (seglint -h lists them)", n)})
					}
				}
				end := fset.Position(c.End())
				for l := pos.Line; l <= end.Line+1; l++ {
					sup.allow(pos.Filename, l, names)
				}
			}
		}
		// Function-scoped directives: a directive in the doc comment
		// covers the entire declaration.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			// Scan the raw comment lines: CommentGroup.Text() strips
			// "//seglint:" lines as comment directives.
			var names []string
			for _, c := range fd.Doc.List {
				names = append(names, directiveNames(c.Text)...)
			}
			if len(names) == 0 {
				continue
			}
			start := fset.Position(fd.Pos())
			end := fset.Position(fd.End())
			for l := start.Line; l <= end.Line; l++ {
				sup.allow(start.Filename, l, names)
			}
		}
	}
	return sup
}

func directiveNames(text string) []string {
	m := directiveRe.FindStringSubmatch(text)
	if m == nil {
		return nil
	}
	return strings.Split(m[1], ",")
}

// libraryPackage reports whether the import path names a library package:
// everything except command binaries and examples. Test files are never
// loaded, so they are exempt by construction.
func libraryPackage(pkgPath string) bool {
	parts := strings.Split(pkgPath, "/")
	for _, p := range parts[1:] {
		if p == "cmd" || p == "examples" {
			return false
		}
	}
	return true
}
