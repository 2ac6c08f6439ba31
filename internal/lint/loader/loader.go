// Package loader loads Go packages with full type information using only
// the standard library and the go tool — an offline-friendly stand-in for
// golang.org/x/tools/go/packages, which the hermetic build environment
// cannot depend on.
//
// The mechanism: `go list -export -deps -json` resolves the build (module
// mode, build tags, file selection) and hands back compiler export data for
// every dependency from the build cache; the target packages' sources are
// then parsed with go/parser and type-checked with go/types, importing
// dependencies through go/importer's gc importer pointed at that export
// data. No network, no GOPATH assumptions, no third-party code — and the
// type information is the compiler's own, so analyzers see exactly the
// types the build does.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	// Syntax holds the parsed non-test sources, with comments.
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage mirrors the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matching patterns, resolved relative to
// dir (the module root or any directory inside it). Test files are not
// loaded. Packages come back sorted by import path.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Name,Export,GoFiles,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Every pattern-matched package (DepOnly=false) is a target,
		// including main packages.
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(f)
	})

	pkgs := make([]*Package, 0, len(targets))
	for _, t := range targets {
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func check(fset *token.FileSet, imp types.Importer, t listPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	typesPkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", t.ImportPath, err)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Dir:        t.Dir,
		Fset:       fset,
		Syntax:     files,
		Types:      typesPkg,
		TypesInfo:  info,
	}, nil
}
