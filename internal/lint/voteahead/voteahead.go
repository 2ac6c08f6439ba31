// Package voteahead machine-checks the persist-before-broadcast discipline
// of the vote-ahead log (PR 6).
//
// A Leopard replica's vote is a unilateral commitment: once a vote-kind
// message leaves the node, a peer may have seen it, so a crash that forgets
// the vote reopens the amnesia window — the restarted replica can sign
// different content for the same (view, seq) slot, i.e. equivocate. The
// codebase therefore requires every path that sends a vote-carrying message
// (VoteMsg, or BFTblockMsg, whose LeaderShare embeds the leader's round-1
// vote) or records local vote state (an agreement round's voted flag and
// its reloaded lock) to first pass a checked persist guard:
//
//	if !n.persistVote(...) { return }            // or
//	if k == 2 && !n.persistNote(inst) || !n.persistVote(...) { return }
//
// persistVote flushes and fsyncs the vote record before returning and
// latches the fail-stop on error, so after the guard either the durable
// lock covers anything a peer may see, or nothing leaves the node.
//
// Before this analyzer the discipline was enforced at four call sites by
// convention — and was shipped broken once (the PR 6 review found persist
// failures that did not abort the vote). Every vote now goes through one
// function, but the check still covers the whole package, so a second vote
// path cannot come back unguarded. The check here is positional
// within each function: every emission/record site must be preceded by a
// persist guard whose body aborts the path. That is an approximation of
// dominance, but it is exact for the shape this codebase uses (straight-
// line guard-then-act) and it catches both regressions that matter:
// deleting the guard, and reordering the broadcast above it.
//
// Exemption: `//lint:voteahead-exempt <justification>` on the line or in
// the enclosing function's doc comment. The legitimate exemption in-tree is
// vote-lock *reloading* at startup, where the records being written back
// into the instances are the store's own — already durable by definition.
package voteahead

import (
	"go/ast"
	"go/token"

	"leopard/internal/lint/analysis"
)

// Analyzer is the persist-before-broadcast invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "voteahead",
	Doc:  "vote-kind sends and vote-state records must be dominated by a checked persistVote success",
	Run:  run,
}

const scopePath = "leopard/internal/leopard"

// voteMsgTypes are the message types whose emission constitutes a vote
// leaving the node. ProofMsg is deliberately absent: a σ1/σ2 broadcast
// relays others' shares and carries no new commitment by the sender.
var voteMsgTypes = map[string]bool{"VoteMsg": true, "BFTblockMsg": true}

// voteStateFields are the node-local vote bookkeeping that must never run
// ahead of the durable record: a round's voted flag and its lock.
var voteStateFields = map[string]bool{"voted": true, "lock": true}

func run(pass *analysis.Pass) (any, error) {
	if pass.ImportPath != scopePath {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var guards []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if ok && condChecksPersist(pass, ifStmt.Cond) && bodyAborts(ifStmt.Body) {
			guards = append(guards, ifStmt.Pos())
		}
		return true
	})
	guarded := func(pos token.Pos) bool {
		for _, g := range guards {
			if g < pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if msgType, ok := emitsVoteKind(pass, node); ok && !guarded(node.Pos()) {
				report(pass, node.Pos(), fd,
					"*%s put on the Sink without a preceding checked persistVote: a crash after this send reopens the vote-amnesia window (persist-before-broadcast, PR 6)", msgType)
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if name, ok := recordsVoteState(lhs); ok && !guarded(node.Pos()) {
					report(pass, node.Pos(), fd,
						"vote state %q recorded without a preceding checked persistVote: the durable lock must cover every vote this node considers cast", name)
				}
			}
		}
		return true
	})
}

// condChecksPersist reports whether cond contains a call to a function or
// method named persistVote — the guard expression shape is free (negation,
// || with persistNote) as long as the durable append's result is what gates
// the branch.
func condChecksPersist(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if analysis.CalleeName(pass.TypesInfo, call) == "persistVote" {
				found = true
			}
		}
		return !found
	})
	return found
}

// bodyAborts reports whether the guard body terminates the path: its last
// statement is a return, a branch (break/continue/goto), or a panic.
func bodyAborts(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// emitsVoteKind reports whether call pushes a vote-kind message into a
// transport.Sink (Send or Broadcast, including messages wrapped through
// transport.Unicast/transport.Broadcast in the arguments).
func emitsVoteKind(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	isSink := analysis.IsMethodCall(pass.TypesInfo, call, "leopard/internal/transport", "Sink", "Send") ||
		analysis.IsMethodCall(pass.TypesInfo, call, "leopard/internal/transport", "Sink", "Broadcast")
	if !isSink {
		return "", false
	}
	for _, arg := range call.Args {
		if name, ok := containsVoteMsg(pass, arg); ok {
			return name, true
		}
	}
	return "", false
}

// containsVoteMsg walks expr for any sub-expression whose static type is a
// pointer to one of the vote-kind message types.
func containsVoteMsg(pass *analysis.Pass, expr ast.Expr) (string, bool) {
	name, found := "", false
	ast.Inspect(expr, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || found {
			return !found
		}
		tv, ok := pass.TypesInfo.Types[e]
		if !ok {
			return true
		}
		named := analysis.NamedOf(tv.Type)
		if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != scopePath {
			return true
		}
		if voteMsgTypes[named.Obj().Name()] {
			name, found = named.Obj().Name(), true
		}
		return !found
	})
	return name, found
}

// recordsVoteState matches assignment targets that record a cast vote:
// `x.voted = ...`, `x.lock = ...`.
func recordsVoteState(lhs ast.Expr) (string, bool) {
	if e, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && voteStateFields[e.Sel.Name] {
		return e.Sel.Name, true
	}
	return "", false
}

func report(pass *analysis.Pass, pos token.Pos, encl *ast.FuncDecl, format string, args ...any) {
	if pass.ExemptedAt(pos, "voteahead-exempt", encl) {
		return
	}
	pass.Reportf(pos, format, args...)
}
