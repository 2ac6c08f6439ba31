// Package aliasret machine-checks the copy-on-return accessor contract for
// store, log, stats and pool types (the aliased Votes bug, generalized).
//
// A store's Votes accessor once returned its internal slice: any caller
// could corrupt the vote-ahead log through the alias, silently undermining
// the durability argument built on it. The fix — accessors return copies —
// is a contract, not a one-off, and this analyzer enforces it: an exported
// method on a state-holding type must not return an internal mutable slice
// or map reached from its receiver.
//
// Scope: every exported method in internal/storage and internal/obs,
// plus, module-wide, exported methods whose receiver type name ends in
// Store, Log, Stats or Pool. Flagged shape: a return result that is a
// selector/index chain rooted at the receiver whose type is a slice or map
// (`return m.votes`, `return s.chunks[k]`). Returning freshly built values
// (`append([]T(nil), m.votes...)`, composite literals, call results) is
// the sanctioned pattern and passes.
//
// Exemption: `//lint:aliases-internal <justification>` — for accessors
// that intentionally hand out shared state (e.g. a read-only view whose
// callers are documented).
package aliasret

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"leopard/internal/lint/analysis"
)

// Analyzer is the copy-on-return invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "aliasret",
	Doc:  "exported accessors on store/log/stats/pool types must not return internal slices or maps without copying",
	Run:  run,
}

// scopedPackages have every exported method checked regardless of type
// name: these are the durability and measurement layers, where an aliased
// return corrupts state the rest of the system reasons about.
var scopedPackages = map[string]bool{
	"leopard/internal/storage": true,
	"leopard/internal/obs":     true,
}

// scopedSuffixes widen the check module-wide to types that are stores by
// name and role.
var scopedSuffixes = []string{"Store", "Log", "Stats", "Pool"}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recvVar, recvTypeName := receiver(pass, fd)
			if recvVar == nil || !inScope(pass, recvTypeName) {
				continue
			}
			checkMethod(pass, fd, recvVar, recvTypeName)
		}
	}
	return nil, nil
}

func receiver(pass *analysis.Pass, fd *ast.FuncDecl) (*types.Var, string) {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil, ""
	}
	name := fd.Recv.List[0].Names[0]
	obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
	if !ok {
		return nil, ""
	}
	named := analysis.NamedOf(obj.Type())
	if named == nil {
		return nil, ""
	}
	return obj, named.Obj().Name()
}

func inScope(pass *analysis.Pass, typeName string) bool {
	if scopedPackages[pass.ImportPath] {
		return true
	}
	for _, suf := range scopedSuffixes {
		if strings.HasSuffix(typeName, suf) {
			return true
		}
	}
	return false
}

func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl, recv *types.Var, recvTypeName string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			_ = fl
			return false // closures are not the accessor's return path
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if path, ok := aliasesReceiver(pass, recv, res); ok {
				report(pass, ret.Pos(), fd, recvTypeName, fd.Name.Name, path)
			}
		}
		return true
	})
}

// aliasesReceiver reports whether res is a selector/index chain rooted at
// the receiver whose type is a slice or map — i.e. it hands the caller a
// live reference into the receiver's state.
func aliasesReceiver(pass *analysis.Pass, recv *types.Var, res ast.Expr) (string, bool) {
	res = ast.Unparen(res)
	tv, ok := pass.TypesInfo.Types[res]
	if !ok || tv.Type == nil {
		return "", false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
	default:
		return "", false
	}
	// Walk down the chain to the root identifier.
	expr := res
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			expr = ast.Unparen(e.X)
		case *ast.IndexExpr:
			expr = ast.Unparen(e.X)
		case *ast.Ident:
			if obj, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && obj == recv {
				return render(res), true
			}
			return "", false
		default:
			return "", false
		}
	}
}

func render(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.SelectorExpr:
		return render(t.X) + "." + t.Sel.Name
	case *ast.IndexExpr:
		return render(t.X) + "[...]"
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

func report(pass *analysis.Pass, pos token.Pos, fd *ast.FuncDecl, typeName, method, path string) {
	if pass.ExemptedAt(pos, "aliases-internal", fd) {
		return
	}
	pass.Reportf(pos,
		"%s.%s returns internal %s by reference: callers can corrupt the %s through the alias (as a store's Votes accessor once did); return a copy or annotate `//lint:aliases-internal <why>`",
		typeName, method, path, strings.ToLower(typeName))
}
