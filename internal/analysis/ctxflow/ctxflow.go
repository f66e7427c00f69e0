// Package ctxflow enforces the repository's context-discipline
// invariant: in the context-aware library packages (the fpis facade and
// the gallery, shard, replica, matchsvc and topology layers under it),
// cancellation must flow from the caller. Concretely:
//
//  1. No call to context.Background() or context.TODO() — a library
//     function that fabricates its own root context breaks the
//     end-to-end cancellation chain PR 5 established. Sites that are
//     legitimately roots (a background maintenance loop nobody calls)
//     must say so with //fpvet:allow ctxflow <reason>.
//  2. Exported functions, methods, and interface methods that take a
//     context.Context must take it as the first parameter, matching
//     the fpis.Service convention.
//  3. No call to time.Sleep inside a function that takes a
//     context.Context — a bare sleep (a retry backoff, a poll
//     interval) ignores cancellation for its whole duration; the wait
//     must select on ctx.Done() against a timer. The rule stops at
//     function-literal boundaries, since a spawned goroutine owns its
//     own lifecycle.
package ctxflow

import (
	"go/ast"
	"go/types"

	"fpinterop/internal/analysis"
)

// DefaultPackages are the context-aware library packages the invariant
// governs.
var DefaultPackages = []string{
	"fpinterop/fpis",
	"fpinterop/internal/gallery",
	"fpinterop/internal/shard",
	"fpinterop/internal/replica",
	"fpinterop/internal/matchsvc",
	"fpinterop/internal/topology",
}

// Analyzer is the ctxflow checker.
type Analyzer struct {
	// Packages are the import paths in scope; empty means
	// DefaultPackages.
	Packages []string
}

// New returns the checker with the repository's default scope.
func New() *Analyzer { return &Analyzer{} }

func (a *Analyzer) Name() string { return "ctxflow" }

func (a *Analyzer) inScope(path string) bool {
	pkgs := a.Packages
	if len(pkgs) == 0 {
		pkgs = DefaultPackages
	}
	for _, p := range pkgs {
		if p == path {
			return true
		}
	}
	return false
}

// Check implements analysis.Analyzer.
func (a *Analyzer) Check(p *analysis.Pkg) []analysis.Finding {
	if !a.inScope(p.Path) {
		return nil
	}
	var out []analysis.Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if name, bad := rootContextCall(p.Info, node); bad {
					out = append(out, analysis.Findingf(p, a, node.Pos(),
						"library code fabricates a root context with context.%s; thread the caller's ctx (annotate genuine roots with //fpvet:allow ctxflow <reason>)", name))
				}
			case *ast.FuncDecl:
				if node.Name.IsExported() {
					out = append(out, a.checkSignature(p, node.Name.Name, node.Type)...)
				}
				out = append(out, a.checkSleep(p, node)...)
			case *ast.InterfaceType:
				for _, m := range node.Methods.List {
					ft, ok := m.Type.(*ast.FuncType)
					if !ok {
						continue
					}
					for _, name := range m.Names {
						if name.IsExported() {
							out = append(out, a.checkSignature(p, name.Name, ft)...)
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// checkSignature flags a context.Context parameter that is not first.
func (a *Analyzer) checkSignature(p *analysis.Pkg, name string, ft *ast.FuncType) []analysis.Finding {
	var out []analysis.Finding
	pos := 0
	for _, field := range ft.Params.List {
		t := p.Info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if t != nil && analysis.IsContextType(t) && pos != 0 {
			out = append(out, analysis.Findingf(p, a, field.Pos(),
				"%s takes context.Context at parameter %d; the context must come first", name, pos))
		}
		pos += n
	}
	return out
}

// checkSleep flags time.Sleep inside a context-taking function: the
// wait blocks cancellation for its full duration, which is exactly the
// window retries and polls exist to bound.
func (a *Analyzer) checkSleep(p *analysis.Pkg, fn *ast.FuncDecl) []analysis.Finding {
	if fn.Body == nil || !takesContext(p.Info, fn.Type) {
		return nil
	}
	var out []analysis.Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			// A nested literal (usually a goroutine body) owns its own
			// lifecycle and may legitimately pace itself with sleeps.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := analysis.CalleeObject(p.Info, call)
		if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Sleep" {
			out = append(out, analysis.Findingf(p, a, call.Pos(),
				"time.Sleep in context-taking %s ignores cancellation; select on ctx.Done() against a timer (annotate deliberate waits with //fpvet:allow ctxflow <reason>)", fn.Name.Name))
		}
		return true
	})
	return out
}

// takesContext reports whether any parameter is a context.Context.
func takesContext(info *types.Info, ft *ast.FuncType) bool {
	for _, field := range ft.Params.List {
		if t := info.TypeOf(field.Type); t != nil && analysis.IsContextType(t) {
			return true
		}
	}
	return false
}

// rootContextCall reports a call to context.Background or context.TODO.
func rootContextCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := analysis.CalleeObject(info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	switch obj.Name() {
	case "Background", "TODO":
		return obj.Name(), true
	}
	return "", false
}
