// Package sentinelerr enforces the repository's error-identity
// invariant. The gallery sentinels (ErrNotFound, ErrDuplicate) cross a
// wire boundary, so values arriving back are wrapped reconstructions —
// identity comparison with == silently stops matching the moment a
// layer wraps. Concretely:
//
//   - sentinel comparisons use errors.Is, never ==/!= against a
//     package-level error variable;
//   - error text is not matched: no strings.Contains/HasPrefix/
//     HasSuffix/EqualFold/Index over .Error() output, and no
//     err.Error() == "..." comparisons — anywhere: the wire protocol's
//     status byte carries sentinel identity, so no site needs to
//     recover it from a message.
package sentinelerr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fpinterop/internal/analysis"
)

// textMatchers are the strings functions that constitute text matching
// when fed .Error() output.
var textMatchers = map[string]bool{
	"Contains":  true,
	"HasPrefix": true,
	"HasSuffix": true,
	"EqualFold": true,
	"Index":     true,
}

// DefaultSentinelModule scopes identity comparisons to sentinels this
// module defines. Stdlib sentinels like io.EOF are contractually
// returned unwrapped (the io.Reader interface promises EOF itself), so
// == against them is idiomatic and stays legal; only the module's own
// sentinels cross wrapping layers and wire boundaries.
const DefaultSentinelModule = "fpinterop"

// Analyzer is the sentinelerr checker.
type Analyzer struct {
	// SentinelModule is the module path whose package-level error
	// variables are governed sentinels; empty means
	// DefaultSentinelModule.
	SentinelModule string
}

// New returns the checker scoped to this module's sentinels.
func New() *Analyzer { return &Analyzer{} }

func (a *Analyzer) Name() string { return "sentinelerr" }

// Check implements analysis.Analyzer.
func (a *Analyzer) Check(p *analysis.Pkg) []analysis.Finding {
	var out []analysis.Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.BinaryExpr:
				out = append(out, a.checkCompare(p, node)...)
			case *ast.CallExpr:
				if name, bad := a.textMatchCall(p, node); bad {
					out = append(out, analysis.Findingf(p, a, node.Pos(),
						"matches error text with strings.%s; carry a sentinel and compare with errors.Is", name))
				}
			}
			return true
		})
	}
	return out
}

func (a *Analyzer) checkCompare(p *analysis.Pkg, cmp *ast.BinaryExpr) []analysis.Finding {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return nil
	}
	var out []analysis.Finding
	for _, pair := range [2][2]ast.Expr{{cmp.X, cmp.Y}, {cmp.Y, cmp.X}} {
		side, other := pair[0], pair[1]
		if obj := a.sentinelVar(p.Info, side); obj != nil && !isNil(p.Info, other) {
			out = append(out, analysis.Findingf(p, a, cmp.Pos(),
				"sentinel %s compared with %s; wrapped errors break identity — use errors.Is", obj.Name(), cmp.Op))
			break
		}
		if isErrorTextCall(p.Info, side) {
			out = append(out, analysis.Findingf(p, a, cmp.Pos(),
				"compares error text with %s; translate to a sentinel and use errors.Is", cmp.Op))
			break
		}
	}
	return out
}

// textMatchCall reports a strings.<matcher> call with a .Error() call
// among its arguments.
func (a *Analyzer) textMatchCall(p *analysis.Pkg, call *ast.CallExpr) (string, bool) {
	if analysis.CalleePkgPath(p.Info, call) != "strings" {
		return "", false
	}
	name := analysis.CalleeName(call)
	if !textMatchers[name] {
		return "", false
	}
	for _, arg := range call.Args {
		if isErrorTextCall(p.Info, ast.Unparen(arg)) {
			return name, true
		}
	}
	return "", false
}

// sentinelVar resolves expr to a governed sentinel: a package-level
// error variable defined inside the analyzer's module.
func (a *Analyzer) sentinelVar(info *types.Info, expr ast.Expr) *types.Var {
	var ident *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		ident = e
	case *ast.SelectorExpr:
		ident = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[ident].(*types.Var)
	if !ok || v.Parent() == nil || v.Parent().Parent() != types.Universe {
		return nil // not package-level
	}
	module := a.SentinelModule
	if module == "" {
		module = DefaultSentinelModule
	}
	if v.Pkg() == nil {
		return nil
	}
	if path := v.Pkg().Path(); path != module && !strings.HasPrefix(path, module+"/") {
		return nil // stdlib or third-party sentinel; == is their contract
	}
	if !implementsError(v.Type()) {
		return nil
	}
	return v
}

// isErrorTextCall reports whether expr is a no-argument .Error() call
// on an error value.
func isErrorTextCall(info *types.Info, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	t := info.TypeOf(sel.X)
	return t != nil && implementsError(t)
}

func isNil(info *types.Info, expr ast.Expr) bool {
	ident, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.Uses[ident].(*types.Nil)
	return isNilObj
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}
