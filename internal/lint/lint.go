// Package lint assembles leopard-lint: the project's go/analysis-style
// invariant suite. Each analyzer encodes one hard-won contract from the
// invariant catalog (see README §"Static analysis & invariant linting"):
//
//	voteahead   — persist-before-broadcast vote-ahead discipline (PR 6)
//	borrowcheck — codec frame-ownership / borrow contract (PR 2, PR 5)
//	determinism — event-clock-only, single-threaded simulation (PRs 3/6)
//	aliasret    — copy-on-return store/log/stats accessors (PR 6 review)
//
// The suite is driven by cmd/leopard-lint and by the in-repo meta-test that
// keeps the tree clean.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"leopard/internal/lint/aliasret"
	"leopard/internal/lint/analysis"
	"leopard/internal/lint/borrowcheck"
	"leopard/internal/lint/determinism"
	"leopard/internal/lint/loader"
	"leopard/internal/lint/voteahead"
)

// Suite returns the project's analyzers in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		voteahead.Analyzer,
		borrowcheck.Analyzer,
		determinism.Analyzer,
		aliasret.Analyzer,
	}
}

// Finding is one resolved diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional path:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Run loads the packages matching patterns (relative to dir) and applies
// every analyzer, returning the findings sorted by position.
func Run(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, error) {
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Syntax,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
				ImportPath: pkg.ImportPath,
			}
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(d.Pos),
					Analyzer: d.Category,
					Message:  d.Message,
				})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
