package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrCheckLite flags dropped errors from the storage stack: a call whose
// callee lives in the page-store, node-codec, or buffer-pool package and
// returns an error, used as a bare statement (or in defer/go) so the error
// vanishes. An I/O or codec error silently discarded is how a durable index
// corrupts: the page write failed but the tree believes it succeeded.
//
// Assigning the error explicitly — including to the blank identifier with a
// comment — is the opt-out; the analyzer only rejects calls where the error
// result is syntactically invisible.
//
// Calls to functions named Write, Sync, or Commit declared in the store or
// core packages are held to a stricter standard: they are flagged even when
// caller and callee share a package. Those are the durability boundary — a
// dropped error there means a commit the caller believes durable is not.
var ErrCheckLite = &Analyzer{
	Name:      "errchecklite",
	Doc:       "forbid dropped errors from store/node/buffer (page I/O and codec) calls",
	Run:       runErrCheckLite,
	AppliesTo: libraryPackage,
}

// errCheckPackageSuffixes selects the callee packages whose errors must not
// be dropped, matched by import-path suffix so test fixtures can stand in
// for the real packages.
var errCheckPackageSuffixes = []string{
	"internal/store",
	"internal/node",
	"internal/buffer",
	"internal/page",
}

// errCheckDurabilitySuffixes selects the packages whose Write/Sync/Commit
// errors must never be dropped, not even by the package's own code.
var errCheckDurabilitySuffixes = []string{
	"internal/store",
	"internal/core",
}

func runErrCheckLite(p *Pass) {
	check := func(call *ast.CallExpr, how string) {
		callee := calleeFunc(p.Info, call)
		if callee == nil || callee.Pkg() == nil {
			return
		}
		if callee.Pkg() == p.Pkg {
			if !errCheckDurabilityCall(callee) {
				return
			}
		} else if !errCheckPackage(callee.Pkg().Path()) && !errCheckDurabilityCall(callee) {
			return
		}
		if !returnsError(callee) {
			return
		}
		p.Reportf(call.Pos(), "%s drops the error returned by %s.%s; handle it or assign it explicitly",
			how, callee.Pkg().Name(), callee.Name())
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					check(call, "statement")
				}
			case *ast.DeferStmt:
				check(st.Call, "defer")
			case *ast.GoStmt:
				check(st.Call, "go statement")
			}
			return true
		})
	}
}

func errCheckPackage(path string) bool {
	return pathHasSuffix(path, errCheckPackageSuffixes)
}

// errCheckDurabilityCall reports whether the callee is one of the commit-
// protocol functions (Write, Sync, Commit) declared in the store or core
// packages.
func errCheckDurabilityCall(fn *types.Func) bool {
	switch fn.Name() {
	case "Write", "Sync", "Commit":
	default:
		return false
	}
	return pathHasSuffix(fn.Pkg().Path(), errCheckDurabilitySuffixes)
}

func pathHasSuffix(path string, suffixes []string) bool {
	for _, suffix := range suffixes {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

// calleeObject resolves the called function or method, or nil.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeFunc resolves the called function, following method values through
// selections so interface-method calls (store.Store.Write) resolve to the
// interface method's declaring package.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	obj := calleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn
}

// returnsError reports whether the function's results include an error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}
