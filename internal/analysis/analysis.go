// Package analysis is the driver core of fpvet, the repository's
// static-analysis suite. It loads packages with full type information
// using only the standard library (go/parser + go/types, with export
// data located via `go list -export`), defines the Analyzer and Finding
// vocabulary shared by the checkers under internal/analysis/..., and
// implements the //fpvet annotation grammar:
//
//	//fpvet:allow <analyzer> <reason>   silence one analyzer here
//	//fpvet:hotpath                     mark a function allocation-critical
//
// An allow comment applies to findings on its own line and the line
// directly below it (so it works both as a trailing comment and on the
// line preceding the flagged statement); an allow in a function's doc
// comment applies to the whole function. The reason is mandatory — a
// bare allow is itself reported as a finding, so silenced invariants
// always carry their justification in the source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	// Analyzer names the checker that produced the finding.
	Analyzer string
	// Pos locates the violation.
	Pos token.Position
	// Message states the violation and, where useful, the fix.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker. Implementations must be safe to
// run over any package: scoping (which packages or functions a rule
// applies to) is the analyzer's own responsibility.
type Analyzer interface {
	// Name is the identifier used in findings and allow annotations.
	Name() string
	// Check reports the package's violations. Allow filtering is done
	// by the driver; Check reports every raw finding.
	Check(p *Pkg) []Finding
}

// Pkg is one loaded, type-checked package.
type Pkg struct {
	// Path is the package import path.
	Path string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression and object tables.
	Info *types.Info

	annots *annotations // lazily built annotation index
}

// Position resolves a token.Pos against the package file set.
func (p *Pkg) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// Findingf appends a finding at pos.
func Findingf(p *Pkg, a Analyzer, pos token.Pos, format string, args ...any) Finding {
	return Finding{Analyzer: a.Name(), Pos: p.Position(pos), Message: fmt.Sprintf(format, args...)}
}

// Run executes the analyzers over the packages, drops findings
// silenced by well-formed //fpvet:allow annotations, appends findings
// for malformed annotations, and returns everything ordered by file,
// line, and analyzer.
func Run(pkgs []*Pkg, analyzers []Analyzer) []Finding {
	var out []Finding
	for _, p := range pkgs {
		an := p.annotations()
		out = append(out, an.malformed...)
		for _, a := range analyzers {
			for _, f := range a.Check(p) {
				if an.allowed(a.Name(), f.Pos) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// allowRange is one silenced region: an analyzer name and a line span
// (file-scoped; function-level allows span the function's lines).
type allowRange struct {
	analyzer  string
	file      string
	startLine int
	endLine   int
}

// annotations indexes a package's //fpvet comments.
type annotations struct {
	allows    []allowRange
	hotpaths  map[*ast.FuncDecl]bool
	malformed []Finding
}

const (
	allowPrefix   = "//fpvet:allow"
	hotpathMarker = "//fpvet:hotpath"
)

// annotations builds (once) the package's annotation index.
func (p *Pkg) annotations() *annotations {
	if p.annots != nil {
		return p.annots
	}
	an := &annotations{hotpaths: make(map[*ast.FuncDecl]bool)}
	for _, file := range p.Files {
		// Function-level annotations come from doc comments; they are
		// recorded first so the generic comment walk below can skip them
		// (a doc-comment allow covers the whole function, not two lines).
		docComments := make(map[*ast.Comment]bool)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, hotpathMarker) {
					an.hotpaths[fd] = true
					docComments[c] = true
				}
				if strings.HasPrefix(c.Text, allowPrefix) {
					docComments[c] = true
					name, ok := parseAllow(c.Text)
					if !ok {
						an.malformed = append(an.malformed, malformedAllow(p, c.Pos()))
						continue
					}
					start := p.Position(fd.Pos())
					end := p.Position(fd.End())
					an.allows = append(an.allows, allowRange{
						analyzer:  name,
						file:      start.Filename,
						startLine: start.Line,
						endLine:   end.Line,
					})
				}
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if docComments[c] {
					continue
				}
				if strings.HasPrefix(c.Text, allowPrefix) {
					pos := p.Position(c.Pos())
					name, ok := parseAllow(c.Text)
					if !ok {
						an.malformed = append(an.malformed, malformedAllow(p, c.Pos()))
						continue
					}
					an.allows = append(an.allows, allowRange{
						analyzer:  name,
						file:      pos.Filename,
						startLine: pos.Line,
						endLine:   pos.Line + 1,
					})
				} else if strings.HasPrefix(c.Text, hotpathMarker) {
					// A hotpath marker that is not a function doc comment
					// marks nothing; surface it instead of ignoring it.
					an.malformed = append(an.malformed, Finding{
						Analyzer: "annotation",
						Pos:      p.Position(c.Pos()),
						Message:  "//fpvet:hotpath must appear in a function's doc comment",
					})
				}
			}
		}
	}
	p.annots = an
	return an
}

func malformedAllow(p *Pkg, pos token.Pos) Finding {
	return Finding{
		Analyzer: "annotation",
		Pos:      p.Position(pos),
		Message:  "malformed allow: want //fpvet:allow <analyzer> <reason>",
	}
}

// parseAllow extracts the analyzer name from an allow comment,
// requiring a non-empty reason after it.
func parseAllow(text string) (analyzer string, ok bool) {
	rest := strings.TrimPrefix(text, allowPrefix)
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", false
	}
	return fields[0], true
}

// allowed reports whether a finding by the named analyzer at pos is
// silenced by an allow annotation.
func (an *annotations) allowed(analyzer string, pos token.Position) bool {
	for _, a := range an.allows {
		if a.analyzer == analyzer && a.file == pos.Filename &&
			pos.Line >= a.startLine && pos.Line <= a.endLine {
			return true
		}
	}
	return false
}

// HotpathFuncs returns the package's annotated hot-path functions.
func (p *Pkg) HotpathFuncs() []*ast.FuncDecl {
	an := p.annotations()
	var out []*ast.FuncDecl
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && an.hotpaths[fd] {
				out = append(out, fd)
			}
		}
	}
	return out
}

// --- shared type helpers ---

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// CalleeObject resolves the object a call expression invokes (function,
// method, or builtin), or nil when it cannot be determined.
func CalleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		return info.Uses[fun.Sel]
	}
	return nil
}

// CalleePkgPath returns the import path of the package the call's
// callee belongs to ("" for builtins, locals whose package is unknown,
// and unresolvable callees).
func CalleePkgPath(info *types.Info, call *ast.CallExpr) string {
	obj := CalleeObject(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// CalleeName returns the bare name of the call's callee ("" when
// unresolvable syntactically).
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// ContainsLock reports whether t (after resolving named types) directly
// or transitively embeds a sync lock type by value. seen guards against
// recursive types; pass nil at the top level.
func ContainsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "Pool", "WaitGroup", "Once", "Cond", "Map":
				return true
			}
		}
		return ContainsLock(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if ContainsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return ContainsLock(u.Elem(), seen)
	}
	return false
}
