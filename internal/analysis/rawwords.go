package analysis

import (
	"go/ast"
	"go/types"
)

// RawWords polices the state package's packed bit storage. Every write to
// the shared `words` slice of a state.Elem or state.File must flow through
// the small set of bookkeeping writers that maintain the position-keyed
// digest, the undo journal and the touch trace in lockstep with the raw
// bits. A stray `e.words[w] = v` elsewhere —
// including through a `words := e.words` local alias or a copy() into the
// slice — silently desynchronizes the digest from the stored state, which
// the injection engine can neither detect nor recover from.
var RawWords = &Analyzer{
	Name: "rawwords",
	Doc: "flag writes to Elem/File packed words storage outside the " +
		"bookkeeping writers that keep digest, journal and trace coherent",
	Match: func(path string) bool {
		return pathContainsAny(path, "internal/state")
	},
	Run: runRawWords,
}

// wordsWriters are the methods allowed to touch the packed storage
// directly: the specialized row writers (put, setStraddle), the lane mask
// writers (SetMask, ClearMask), and the whole-file lifecycle operations
// that re-derive or explicitly invalidate the digest (Freeze, RollbackTo,
// Restore, Reset).
var wordsWriters = map[string]bool{
	"put":         true,
	"setStraddle": true,
	"SetMask":     true,
	"ClearMask":   true,
	"Freeze":      true,
	"RollbackTo":  true,
	"Restore":     true,
	"Reset":       true,
}

func runRawWords(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// The allowlist names methods, not free functions: a method's
			// receiver scopes it to the storage-owning type.
			if fn.Recv != nil && wordsWriters[fn.Name.Name] {
				continue
			}
			checkWordsWrites(pass, fn)
		}
	}
	return nil
}

// checkWordsWrites walks one function flagging raw-storage writes:
// assignments to words[i] or to the words field itself, ++/-- on a packed
// word, and copy() with words storage as the destination — each tracked
// through local aliases of the slice header.
func checkWordsWrites(pass *Pass, fn *ast.FuncDecl) {
	aliases := make(map[types.Object]bool)
	report := func(n ast.Node, what string) {
		found, hasReason := pass.Annotation(n, "words-ok")
		if !found {
			pass.Reportf(n.Pos(), "%s bypasses digest/journal/trace bookkeeping; "+
				"route the write through a bookkeeping writer (Set/Flip/SetMask/"+
				"ClearMask) or an allowlisted lifecycle method", what)
			return
		}
		if !hasReason {
			pass.Reportf(n.Pos(), "pipelint:words-ok annotation needs a reason")
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Record `ws := e.words` slice-header aliases first: a later
			// `ws[i] = v` writes the same backing array.
			if n.Tok.String() == ":=" || n.Tok.String() == "=" {
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isWordsExpr(pass, rhs, aliases) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							if obj := identObj(pass, id); obj != nil {
								aliases[obj] = true
							}
						}
					}
				}
			}
			for _, lhs := range n.Lhs {
				switch x := lhs.(type) {
				case *ast.IndexExpr:
					if isWordsExpr(pass, x.X, aliases) {
						report(n, "assignment to packed words storage")
					}
				case *ast.SelectorExpr:
					if isWordsExpr(pass, x, aliases) {
						report(n, "rebinding the packed words slice")
					}
				}
			}
		case *ast.IncDecStmt:
			if x, ok := n.X.(*ast.IndexExpr); ok && isWordsExpr(pass, x.X, aliases) {
				report(n, "increment of packed words storage")
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "copy" &&
				pass.Info.Uses[id] == types.Universe.Lookup("copy") &&
				len(n.Args) == 2 && isWordsExpr(pass, n.Args[0], aliases) {
				report(n, "copy into packed words storage")
			}
		}
		return true
	})
}

// isWordsExpr reports whether e denotes the packed `words` slice of a
// state.Elem or state.File, directly (`e.words`, through any receiver
// chain like `l.e.words`) or via a recorded local alias.
func isWordsExpr(pass *Pass, e ast.Expr, aliases map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if x.Sel.Name != "words" {
			return false
		}
		tv, ok := pass.Info.Types[x.X]
		if !ok {
			return false
		}
		t := tv.Type
		return isPtrToNamed(t, "state", "Elem") || isPtrToNamed(t, "state", "File") ||
			isNamed(t, "state", "Elem") || isNamed(t, "state", "File")
	case *ast.Ident:
		if obj := identObj(pass, x); obj != nil {
			return aliases[obj]
		}
	}
	return false
}

// isNamed reports whether t is exactly the named type pkgName.typeName
// (no pointer indirection — value receivers and struct fields).
func isNamed(t types.Type, pkgName, typeName string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// identObj resolves an identifier to its object, def-or-use.
func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}
