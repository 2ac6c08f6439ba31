// Package analysis is a minimal, offline-friendly clone of the
// golang.org/x/tools/go/analysis API surface that leopard-lint's analyzers
// are written against.
//
// Why a clone and not the real thing: the build environment for this
// repository is fully hermetic — no module proxy, no vendored third-party
// code — so golang.org/x/tools cannot be a dependency. The subset
// implemented here (Analyzer, Pass, Diagnostic, positional reporting) is
// deliberately shaped after the upstream API: an analyzer written against
// this package ports to x/tools by changing one import path, and vice
// versa. Facts, modular analysis and the multichecker driver protocol are
// out of scope; leopard-lint loads whole packages with full type
// information (internal/lint/loader), which is all the invariant suite
// needs.
//
// # Exemption annotations
//
// Every leopard-lint analyzer supports explicit, auditable exemptions: a
// comment of the form
//
//	//lint:<marker> <one-line justification>
//
// on the flagged line, on the line directly above it, or in the enclosing
// function's doc comment suppresses that analyzer's findings for the line
// (respectively the function). The justification is mandatory — a bare
// marker does not exempt — so every escape hatch in the tree documents why
// the invariant does not apply. ExemptedAt implements the lookup.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name is the analyzer's short kebab/lowercase identifier, used in
	// diagnostics and CLI output.
	Name string
	// Doc is the full help text: the first line is a summary, the rest
	// explains the invariant being enforced and how to annotate exemptions.
	Doc string
	// Run applies the analyzer to one package. Diagnostics are reported
	// through the pass; the result value is unused by the driver and exists
	// for API compatibility with x/tools.
	Run func(*Pass) (any, error)
}

// Pass provides one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File // parsed non-test sources, with comments
	Pkg       *types.Package
	TypesInfo *types.Info

	// ImportPath is the package's import path as reported by the build
	// system (Pkg.Path() matches it; kept explicit for clarity in scoping
	// checks).
	ImportPath string

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// lineComments maps file line numbers to the comment text present on
	// that line, built lazily for exemption lookups.
	lineComments map[exemptKey]string
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

type exemptKey struct {
	file string
	line int
}

// lintDirective extracts the marker and justification from a "//lint:"
// comment, returning ok=false for other comments.
func lintDirective(text string) (marker, justification string, ok bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "lint:") {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, "lint:")
	marker, justification, _ = strings.Cut(rest, " ")
	return marker, strings.TrimSpace(justification), true
}

func (p *Pass) buildLineComments() {
	p.lineComments = make(map[exemptKey]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Fset.Position(c.Pos())
				key := exemptKey{file: pos.Filename, line: pos.Line}
				p.lineComments[key] += c.Text + "\n"
			}
		}
	}
}

// ExemptedAt reports whether a finding at pos is covered by an exemption
// comment for marker: a justified "//lint:<marker> why" on the same line,
// the line above, or in the doc comment of the enclosing function
// (encl may be nil when there is none).
func (p *Pass) ExemptedAt(pos token.Pos, marker string, encl *ast.FuncDecl) bool {
	if p.lineComments == nil {
		p.buildLineComments()
	}
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if text, ok := p.lineComments[exemptKey{file: position.Filename, line: line}]; ok {
			if hasJustifiedMarker(text, marker) {
				return true
			}
		}
	}
	if encl != nil && encl.Doc != nil && hasJustifiedMarker(encl.Doc.Text()+rawComments(encl.Doc), marker) {
		return true
	}
	return false
}

// rawComments returns the raw //-prefixed lines of a comment group;
// CommentGroup.Text strips directive comments (//lint:...), so exemption
// lookup needs the raw text.
func rawComments(cg *ast.CommentGroup) string {
	var sb strings.Builder
	for _, c := range cg.List {
		sb.WriteString(c.Text)
		sb.WriteString("\n")
	}
	return sb.String()
}

func hasJustifiedMarker(text, marker string) bool {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "//") {
			line = "//" + line
		}
		if m, just, ok := lintDirective(line); ok && m == marker && just != "" {
			return true
		}
	}
	return false
}

// EnclosingFunc returns the function declaration in file that contains pos,
// or nil.
func EnclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// IsPkgCall reports whether call is a direct call of the package-level
// function pkgPath.name, resolved through type information.
func IsPkgCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name &&
		fn.Type().(*types.Signature).Recv() == nil
}

// IsMethodCall reports whether call invokes a method called name whose
// receiver's named type is recvPkgPath.recvType (pointer or value receiver).
func IsMethodCall(info *types.Info, call *ast.CallExpr, recvPkgPath, recvType, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == recvPkgPath && named.Obj().Name() == recvType
}

// CalleeName returns the bare name of the called function or method, or "".
func CalleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	// Fall back to syntax for calls the type checker could not resolve.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// NamedOf unwraps pointers and returns the named type of t, or nil.
func NamedOf(t types.Type) *types.Named { return namedOf(t) }
