package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// randConstructors are the math/rand package-level names that build an
// explicitly seeded generator — the pattern library code must use (see
// testdata/globalrand/clean.go). Everything else at package level draws from
// the shared global source, whose sequence depends on call interleaving and
// on every other package in the process.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// randTypes are exported type names of math/rand; referring to a type is
// not a draw from the global stream. Only consulted when type information
// is unavailable.
var randTypes = map[string]bool{
	"Rand":     true,
	"Source":   true,
	"Source64": true,
	"Zipf":     true,
	"PCG":      true,
	"ChaCha8":  true,
}

// GlobalRand flags package-level math/rand calls anywhere in non-test code.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid package-level math/rand functions; randomness must flow through an explicitly seeded *rand.Rand",
	Run: func(f *File) []Diagnostic {
		names := importNames(f.AST, "math/rand")
		for n := range importNames(f.AST, "math/rand/v2") {
			names[n] = true
		}
		if len(names) == 0 {
			return nil
		}
		var diags []Diagnostic
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !names[id.Name] || !f.pkgName(id) {
				return true
			}
			if randConstructors[sel.Sel.Name] {
				return true
			}
			// Skip references to types; with type info use it, otherwise
			// fall back to the known type-name list.
			if f.Info != nil {
				if obj, ok := f.Info.Uses[sel.Sel]; ok {
					if _, isType := obj.(*types.TypeName); isType {
						return true
					}
				}
			} else if randTypes[sel.Sel.Name] {
				return true
			}
			diags = append(diags, f.diag(sel.Pos(), "globalrand",
				fmt.Sprintf("%s.%s draws from the global rand source; use an explicitly seeded *rand.Rand", id.Name, sel.Sel.Name)))
			return true
		})
		return diags
	},
}
