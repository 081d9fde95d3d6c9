package vet

import (
	"fmt"
	"go/ast"
	"go/types"
)

// The durability pass guards the crash-safety contract of the
// persistence packages (atomicio and record write files; seglog only
// encodes, and stays in scope so it keeps to that): data is durable only
// when every error on the path to the disk is observed. Three shapes are
// flagged:
//
//   - a (*os.File).Write/WriteString/Sync call whose error result is
//     discarded (a bare expression statement) — a failed fsync silently
//     downgrades "committed" to "maybe";
//   - `defer f.Close()` on an *os.File — Close carries the final flush
//     error on some filesystems, and a deferred call throws it away;
//   - a direct os.Rename or os.WriteFile outside package atomicio — the
//     tmp+rename dance without the fsync bracket tears on crash; the one
//     blessed implementation is atomicio.WriteFile.
//
// Error-path cleanup (`f.Close()` followed by returning an earlier
// error) is deliberately not flagged: only Write/Sync expression
// statements and *deferred* Closes are, which keeps the check quiet on
// legitimate "best effort on the way out of a failure" code.

func durabilityPass(pc *passCtx) []Finding {
	var out []Finding
	for _, u := range pc.units {
		if !pc.report(u) {
			continue
		}
		p := u.pkg
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.ExprStmt:
					call, ok := s.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					name := sel.Sel.Name
					if (name == "Write" || name == "WriteString" || name == "Sync") &&
						isOSFile(p, sel.X) {
						pos := p.fset.Position(call.Pos())
						out = append(out, Finding{
							Check: CheckDurability, Severity: Error,
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("error from (*os.File).%s discarded on a durability path: a failed flush must be observed — check the error or annotate `%s durability — <reason>`",
								name, AllowDirective),
						})
					}
				case *ast.DeferStmt:
					sel, ok := s.Call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if sel.Sel.Name == "Close" && isOSFile(p, sel.X) {
						pos := p.fset.Position(s.Call.Pos())
						out = append(out, Finding{
							Check: CheckDurability, Severity: Error,
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("deferred Close on an *os.File discards the final flush error: close explicitly and check the error, or annotate `%s durability — <reason>`",
								AllowDirective),
						})
					}
				case *ast.CallExpr:
					sel, ok := s.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					if pn, ok := p.info.Uses[id].(*types.PkgName); !ok || pn.Imported().Path() != "os" {
						return true
					}
					if (sel.Sel.Name == "Rename" || sel.Sel.Name == "WriteFile") &&
						p.name != "atomicio" {
						pos := p.fset.Position(s.Pos())
						out = append(out, Finding{
							Check: CheckDurability, Severity: Error,
							File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("direct os.%s bypasses atomicio.WriteFile (no fsync bracket — a crash can tear or lose the file): route through atomicio, or annotate `%s durability — <reason>`",
								sel.Sel.Name, AllowDirective),
						})
					}
				}
				return true
			})
		}
	}
	return out
}

// isOSFile reports whether the expression's type is os.File or *os.File.
func isOSFile(p *sourcePkg, x ast.Expr) bool {
	tv, ok := p.info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}
