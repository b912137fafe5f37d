package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader parses and type-checks packages of one module from source.
// Imports within the module resolve recursively through the loader itself;
// standard-library imports resolve through go/importer's source importer,
// so no compiled export data or external tooling is required.
type Loader struct {
	ModuleRoot string // absolute path of the directory containing go.mod
	ModulePath string // module path from go.mod (e.g. "segidx")

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at moduleRoot with the
// given module path.
func NewLoader(moduleRoot, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod and returns its path and the declared module path.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load from
// the module source tree, everything else from the standard library.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Load parses and type-checks the package with the given module-internal
// import path, reusing a cached result when available.
func (l *Loader) Load(pkgPath string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, l.ModulePath), "/")
	return l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), pkgPath)
}

// LoadDir parses and type-checks the package in dir under the given import
// path. Test files (_test.go) are excluded: the analyzers' contracts apply
// to library code, and tests are free to panic, print, and compare floats.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	if p, ok := l.pkgs[pkgPath]; ok {
		return p, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go source files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	p := &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.pkgs[pkgPath] = p
	return p, nil
}

// goSources lists the buildable non-test Go files in dir, sorted: build
// constraints and _GOOS/_GOARCH file names select them for the platform
// the loader runs on, as the go command would.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Packages enumerates the import paths of every package in the module, in
// lexical order: each directory under the module root holding at least one
// non-test Go file, skipping testdata, hidden, and vendor directories.
func (l *Loader) Packages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := goSources(path)
		if err != nil || len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModulePath)
		} else {
			out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Match reports whether pkgPath matches pattern, which is either an import
// path, a "./dir"-style path relative to the module root, or either form
// suffixed with "/..." for subtree matches ("./..." matches everything).
func (l *Loader) Match(pkgPath, pattern string) bool {
	p := strings.TrimSuffix(pattern, "...")
	recursive := p != pattern
	p = strings.TrimSuffix(p, "/")
	if p == "." || p == "" {
		p = l.ModulePath
	} else if rest, ok := strings.CutPrefix(p, "./"); ok {
		p = l.ModulePath + "/" + rest
	}
	if pkgPath == p {
		return true
	}
	return recursive && strings.HasPrefix(pkgPath, p+"/")
}
