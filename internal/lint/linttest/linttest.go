// Package linttest runs a leopard-lint analyzer over a fixture module and
// checks its diagnostics against expectations embedded in the fixture
// source — the analysistest pattern, adapted to the offline loader.
//
// A fixture is a complete, compiling Go module rooted at the directory
// passed to Run (conventionally testdata/ next to the analyzer). Fixture
// modules are named `leopard` and mirror the real tree's import paths with
// minimal stubs (a transport.Sink, a codec.Reader), because the analyzers
// match contracts by package path and type name — the same fixture that
// exercises voteahead's Sink matching therefore proves the path/name
// matching itself. The go tool ignores testdata directories, so fixture
// modules never leak into the enclosing build.
//
// Expectations are comments of the form
//
//	r.voted = true // want `vote state "voted" recorded`
//
// where each backquoted string is a regular expression that must match the
// message of exactly one diagnostic reported on that line. Diagnostics
// without a matching want, and wants without a matching diagnostic, fail
// the test.
package linttest

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"leopard/internal/lint/analysis"
	"leopard/internal/lint/loader"
)

type key struct {
	file string
	line int
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]*)`")

// Run loads the fixture module rooted at dir, applies a to every package in
// it, and compares diagnostics against the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, err := loader.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture module %s matched no packages", dir)
	}

	wants := make(map[key][]*expectation)
	collectWants := func(fset *token.FileSet, files []*ast.File) {
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &expectation{re: re})
					}
				}
			}
		}
	}

	for _, pkg := range pkgs {
		collectWants(pkg.Fset, pkg.Syntax)
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       pkg.Fset,
			Files:      pkg.Syntax,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
			ImportPath: pkg.ImportPath,
		}
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			for _, exp := range wants[key{pos.Filename, pos.Line}] {
				if !exp.matched && exp.re.MatchString(d.Message) {
					exp.matched = true
					return
				}
			}
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, pkg.ImportPath, err)
		}
	}

	for k, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, exp.re)
			}
		}
	}
}
