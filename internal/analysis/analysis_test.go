package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkSource parses and type-checks one import-free source file as
// package p.
func checkSource(t *testing.T, src string) *Pkg {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tp, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Pkg{Path: "p", Fset: fset, Files: []*ast.File{f}, Types: tp, Info: info}
}

// callFlagger reports every call to a function with the given name.
type callFlagger struct{ name, callee string }

func (a callFlagger) Name() string { return a.name }

func (a callFlagger) Check(p *Pkg) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && CalleeName(call) == a.callee {
				out = append(out, Findingf(p, a, call.Pos(), "call to %s", a.callee))
			}
			return true
		})
	}
	return out
}

// lines renders findings as "line analyzer" pairs.
func lines(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.Pos.String()[len("p.go:"):])
		b.WriteString(" " + f.Analyzer + "\n")
	}
	return b.String()
}

const allowSrc = `package p

func bad() {}

func trailing() {
	bad() //fpvet:allow one trailing allow covers its own line
	bad()
	bad()
}

func above() {
	//fpvet:allow one an allow above covers the next line
	bad()
	bad()
}

// whole is silenced for one analyzer only.
//
//fpvet:allow two a doc-comment allow covers the whole function
func whole() {
	bad()

	bad()
}
`

func TestRunAllowScopes(t *testing.T) {
	p := checkSource(t, allowSrc)
	got := lines(Run([]*Pkg{p}, []Analyzer{
		callFlagger{name: "one", callee: "bad"},
		callFlagger{name: "two", callee: "bad"},
	}))
	// Line 6's allow covers lines 6 and 7 for "one"; line 12's covers
	// 12 and 13; the doc-comment allow covers all of whole() for "two".
	want := "6:2 two\n7:2 two\n8:2 one\n8:2 two\n13:2 two\n14:2 one\n14:2 two\n21:2 one\n23:2 one\n"
	if got != want {
		t.Fatalf("findings:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunReportsMalformedAnnotations(t *testing.T) {
	p := checkSource(t, `package p

func bad() {}

//fpvet:allow one
func noReason() {
	bad()
}

func stray() {
	//fpvet:hotpath
	bad() //fpvet:allow one
}
`)
	fs := Run([]*Pkg{p}, []Analyzer{callFlagger{name: "one", callee: "bad"}})
	var got []string
	for _, f := range fs {
		got = append(got, f.Pos.String()+" ["+f.Analyzer+"] "+f.Message)
	}
	want := []string{
		"p.go:5:1 [annotation] malformed allow: want //fpvet:allow <analyzer> <reason>",
		"p.go:7:2 [one] call to bad",
		"p.go:11:2 [annotation] //fpvet:hotpath must appear in a function's doc comment",
		"p.go:12:2 [one] call to bad",
		"p.go:12:8 [annotation] malformed allow: want //fpvet:allow <analyzer> <reason>",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestParseAllow(t *testing.T) {
	for _, c := range []struct {
		text, analyzer string
		ok             bool
	}{
		{"//fpvet:allow ctxflow root of the keepalive loop", "ctxflow", true},
		{"//fpvet:allow   poolsafe   spaced out", "poolsafe", true},
		{"//fpvet:allow ctxflow", "", false},
		{"//fpvet:allow", "", false},
		{"//fpvet:allow    ", "", false},
	} {
		name, ok := parseAllow(c.text)
		if name != c.analyzer || ok != c.ok {
			t.Errorf("parseAllow(%q) = %q, %v; want %q, %v", c.text, name, ok, c.analyzer, c.ok)
		}
	}
}

func TestHotpathFuncsAreDocMarkedOnly(t *testing.T) {
	p := checkSource(t, `package p

// hot is on the hot path.
//
//fpvet:hotpath
func hot() {}

func cold() {}

//fpvet:hotpath
func alsoHot() {}
`)
	var names []string
	for _, fd := range p.HotpathFuncs() {
		names = append(names, fd.Name.Name)
	}
	if got := strings.Join(names, ","); got != "hot,alsoHot" {
		t.Fatalf("HotpathFuncs = %s, want hot,alsoHot", got)
	}
}

func TestRunOrdersFindings(t *testing.T) {
	a := checkSource(t, "package p\n\nfunc bad() {}\n\nfunc f() { bad(); bad() }\n\nfunc g() {\n\tbad()\n}\n")
	fs := Run([]*Pkg{a}, []Analyzer{
		callFlagger{name: "zeta", callee: "bad"},
		callFlagger{name: "alpha", callee: "bad"},
	})
	got := lines(fs)
	want := "5:12 alpha\n5:12 zeta\n5:19 alpha\n5:19 zeta\n8:2 alpha\n8:2 zeta\n"
	if got != want {
		t.Fatalf("order:\n%s\nwant:\n%s", got, want)
	}
	if s := fs[0].String(); s != "p.go:5:12: [alpha] call to bad" {
		t.Fatalf("Finding.String() = %q", s)
	}
}

func TestContainsLock(t *testing.T) {
	p := checkSource(t, `package p

type Mutex struct{ state int32 }

type guarded struct {
	mu    syncMutex
	count int
}

type syncMutex = Mutex

type list struct {
	next *list
	vals [2]int
}

type self struct {
	again []self
}
`)
	// The source cannot import sync, so build the sync types here.
	sync := types.NewPackage("sync", "sync")
	named := func(pkg *types.Package, name string) *types.Named {
		return types.NewNamed(types.NewTypeName(token.NoPos, pkg, name, nil), types.NewStruct(nil, nil), nil)
	}
	mu := named(sync, "Mutex")
	local := func(name string) types.Type { return p.Types.Scope().Lookup(name).Type() }
	field := func(name string, t types.Type) *types.Var {
		return types.NewField(token.NoPos, nil, name, t, false)
	}
	for _, c := range []struct {
		name string
		t    types.Type
		want bool
	}{
		{"sync.Mutex", mu, true},
		{"sync.RWMutex", named(sync, "RWMutex"), true},
		{"sync.Map", named(sync, "Map"), true},
		{"sync.Locker-like name outside sync", local("Mutex"), false},
		{"struct holding a lock by value", types.NewStruct([]*types.Var{field("mu", mu)}, nil), true},
		{"struct holding a pointer to a lock", types.NewStruct([]*types.Var{field("mu", types.NewPointer(mu))}, nil), false},
		{"array of locks", types.NewArray(mu, 3), true},
		{"slice of locks", types.NewSlice(mu), false},
		{"named struct of plain fields", local("guarded"), false},
		{"recursive through a pointer", local("list"), false},
		{"recursive through a slice", local("self"), false},
	} {
		if got := ContainsLock(c.t, nil); got != c.want {
			t.Errorf("%s: ContainsLock = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCalleeResolution(t *testing.T) {
	p := checkSource(t, `package p

type T struct{}

func (T) M() {}

func F() {}

func use(t T, fn func()) {
	F()
	t.M()
	(F)()
	fn()
	func() {}()
	_ = len("x")
}
`)
	var got []string
	ast.Inspect(p.Files[0], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := CalleeObject(p.Info, call)
		desc := "<nil>"
		if obj != nil {
			desc = obj.Name()
		}
		got = append(got, CalleeName(call)+"/"+desc+"/"+CalleePkgPath(p.Info, call))
		return true
	})
	want := "F/F/p M/M/p F/F/p fn/fn/p /<nil>/ len/len/"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("callees = %s\nwant      %s", s, want)
	}
}
