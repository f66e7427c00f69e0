package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// reachKeep names the functions that no root reaches but that stay,
// each with its reason. A key ending in "." keeps a whole package.
var reachKeep = map[string]string{
	"fpinterop/internal/faultnet.":               "test infrastructure: other packages' tests inject wire faults through it",
	"fpinterop/internal/analysis.RunTestdata":    "test infrastructure: every analyzer's test checks its testdata through it",
	"(*fpinterop/internal/wal.Store).ReplaceAll": "safety guard: shadows the promoted gallery method, which would be an unlogged write",
	"(*fpinterop/internal/wal.Store).LSN":        "observation accessor tests need, with no live equivalent",
	"(*fpinterop/internal/shard.Router).Owner":   "observation accessor tests need, with no live equivalent",
}

// reachDynamic are the method names the standard library calls through
// its own interfaces (fmt, errors, io), unseen by this module's calls.
var reachDynamic = []string{"Error", "String", "Unwrap", "Read"}

// TestEveryLibraryFunctionIsReachable keeps dead code out of the
// module. It builds a call graph over every package, the paper harness
// (the root package's tests) and the benchmark/ module, walks it from
// the roots — main of every command and example, every exported fpis
// function and method, the harness's Benchmark and Test functions, and
// package-level initializers and init functions — and fails on each
// function or method no root reaches and reachKeep does not name. A
// reference to a function counts as a call; a call through an interface
// method named M reaches every method named M. A reachKeep entry that
// names no function, or one a root reaches anyway, fails too.
func TestEveryLibraryFunctionIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and benchmark/; skipped in -short runs")
	}
	root := moduleRoot(t)
	harness := reachList(t, root, "-json=TestImports", ".")[0]
	pkgs := reachList(t, filepath.Join(root, "benchmark"), append([]string{"-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,TestGoFiles,Export,Standard",
		"./...", "fpinterop/..."}, harness.TestImports...)...)

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, lp := range pkgs {
		exports[lp.ImportPath] = lp.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := reachImporter(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	// go list, seeing only doc.go, puts the harness before the packages
	// its tests import: check it last.
	isHarness := func(lp reachPkg) bool { return lp.ImportPath == "fpinterop" }
	sort.SliceStable(pkgs, func(i, j int) bool { return !isHarness(pkgs[i]) && isHarness(pkgs[j]) })

	g := reachGraph{edges: map[string][]string{}, byName: map[string][]string{}}
	decls := map[string]token.Position{} // the functions the test reports on
	var roots []string
	for _, lp := range pkgs {
		if lp.Standard {
			continue
		}
		names := lp.GoFiles
		if isHarness(lp) {
			names = append(append([]string{}, names...), lp.TestGoFiles...)
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = tpkg
		init := "init:" + lp.ImportPath
		roots = append(roots, init)
		for _, f := range files {
			testFile := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && fd.Name.Name == "init" {
					g.edges[init] = append(g.edges[init], reachRefs(info, d)...)
					continue
				}
				name := info.Defs[fd.Name].(*types.Func).FullName()
				g.edges[name] = reachRefs(info, fd)
				if fd.Recv != nil {
					g.byName[fd.Name.Name] = append(g.byName[fd.Name.Name], name)
				}
				if !testFile && lp.ImportPath != "fpinterop/benchmark" {
					decls[name] = fset.Position(fd.Pos())
				}
				switch {
				case fd.Recv == nil && fd.Name.Name == "main" && lp.Name == "main",
					lp.ImportPath == "fpinterop/fpis" && fd.Name.IsExported(),
					isHarness(lp) && testFile && (strings.HasPrefix(fd.Name.Name, "Benchmark") || strings.HasPrefix(fd.Name.Name, "Test")):
					roots = append(roots, name)
				}
			}
		}
	}
	for _, m := range reachDynamic {
		roots = append(roots, "iface:"+m)
	}

	unkept := g.walk(roots)
	var kept []string
	for name := range reachKeep {
		if strings.HasSuffix(name, ".") {
			continue
		}
		if _, ok := decls[name]; !ok {
			t.Errorf("reachKeep names %s, which is not a function of the module", name)
		} else if unkept[name] {
			t.Errorf("reachKeep names %s, which a root reaches: drop the entry", name)
		}
		kept = append(kept, name)
	}
	reached := g.walk(append(roots, kept...))
	var dead []string
	for name, pos := range decls {
		if reached[name] || reachKeptPackage(name) {
			continue
		}
		rel, _ := filepath.Rel(root, pos.Filename)
		dead = append(dead, fmt.Sprintf("%s:%d: %s", rel, pos.Line, name))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is reached by no binary, example, fpis API, paper benchmark or benchmark/ (delete it, or name it in reachKeep with a reason)", d)
	}
}

type reachPkg struct {
	ImportPath, Name, Dir, Export     string
	GoFiles, TestGoFiles, TestImports []string
	Standard                          bool
}

// reachList runs `go list` in dir and returns its packages,
// dependencies before their dependents.
func reachList(t *testing.T, dir string, args ...string) []reachPkg {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var out []reachPkg
	for dec := json.NewDecoder(bytes.NewReader(raw)); dec.More(); {
		var p reachPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

type reachImporter func(path string) (*types.Package, error)

func (f reachImporter) Import(path string) (*types.Package, error) { return f(path) }

// reachGraph is the module's call graph. Nodes are types.Func full
// names, "init:<package>" for a package's initializers, and
// "iface:<M>" for a call through an interface method named M.
type reachGraph struct {
	edges  map[string][]string
	byName map[string][]string // method name → every concrete method of that name
}

// reachRefs lists every function or method the syntax under n refers to.
func reachRefs(info *types.Info, n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				out = append(out, "iface:"+fn.Name())
			} else {
				out = append(out, fn.FullName())
			}
		}
		return true
	})
	return out
}

// walk returns every node reachable from roots.
func (g reachGraph) walk(roots []string) map[string]bool {
	seen := map[string]bool{}
	for stack := append([]string(nil), roots...); len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, g.edges[n]...)
		if m, ok := strings.CutPrefix(n, "iface:"); ok {
			stack = append(stack, g.byName[m]...)
		}
	}
	return seen
}

// reachKeptPackage reports whether reachKeep keeps name's whole package.
func reachKeptPackage(name string) bool {
	for k := range reachKeep {
		if strings.HasSuffix(k, ".") && strings.HasPrefix(strings.TrimLeft(name, "(*"), k) {
			return true
		}
	}
	return false
}
