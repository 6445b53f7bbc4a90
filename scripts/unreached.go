//go:build ignore

// Command unreached prints every package-level declaration (function,
// method, type, variable, constant) in a non-test file of this module that
// no binary can reach, one per line as file:line: name. `make unreached`
// fails on any output.
//
// Reachability is a graph walk over go/types objects. An edge runs from a
// declaration to every module object its source mentions, and from a type to
// each of its methods that some interface it satisfies names (dynamic
// dispatch: fmt.Stringer, error, json.Marshaler, http.Handler, the module's
// own interfaces, and the Unwrap/Is/As the errors package looks for). The
// roots are every main and init, every `var _ = …`, and the root package's
// exported API — which includes every exported method of a type it aliases
// (wlq.Log = wlog.Log, …): importers outside the module cannot name an
// internal/ symbol, but they can call those. Tests are not roots: a
// declaration only a test calls is reported, unless the allow-list below
// says why it stays — and then what it calls is reached through it.
//
// Standard library only; it shells out to `go list -json ./...` for the
// package list and type-checks the module's packages from source, offline.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// allowed names what stays although nothing but tests reaches it, keyed by
// import path (a whole package) or import path + "." + name (Type.Method for
// a method), each with the reason.
var allowed = map[string]string{
	"wlq/internal/faultinject":                "fault-injection seams: the chaos and crash-recovery tests are the callers",
	"wlq/internal/resilience.SetClock":        "test seam: deterministic breaker cooldowns",
	"wlq/internal/core/rewrite.UniformStats":  "the reference cost model the rewrite tests hold the optimizer to",
	"wlq/internal/core/eval.Evaluator.Verify": "Definition 4 re-checked on an answer: the independent oracle of the differential tests",
	"wlq/internal/core/pattern.FromPostfix":   "PAPER_MAP: the inverse of Algorithm 3's post-order numbering",
	"wlq/internal/core/pattern.Consecutive":   "Definition 3's operators as constructors: tests build patterns through them",
	"wlq/internal/core/pattern.Sequential":    "as Consecutive",
	"wlq/internal/core/pattern.Choice":        "as Consecutive",
	"wlq/internal/core/pattern.Parallel":      "as Consecutive",
	// Accessors tests assert through.
	"wlq/internal/colstore.SymbolTable.Name": "symbol -> name, asserted by the interning tests",
	"wlq/internal/colstore.SymbolTable.Len":  "as Name",
	"wlq/internal/server.Server.Coordinator": "the cluster tests read fan-out stats and drive probes through it",
}

type pkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string

	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks module packages on demand (imports first) and hands
// everything else to the standard library's source importer.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*pkg
	std  types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	var err error
	p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	return p.types, err
}

func main() {
	lines, err := unreached()
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}
	for _, line := range lines {
		fmt.Println(line)
	}
	if len(lines) > 0 {
		os.Exit(1)
	}
}

// unreached returns one file:line: name per unreached declaration, sorted.
func unreached() ([]string, error) {
	out, err := exec.Command("go", "list", "-json=ImportPath,Dir,Name,GoFiles,Module", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	build.Default.CgoEnabled = false // type-check net, os/user from their pure-Go files
	fset := token.NewFileSet()
	l := &loader{fset: fset, pkgs: make(map[string]*pkg), std: importer.ForCompiler(fset, "source", nil)}
	var order []*pkg
	module := ""
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			pkg
			Module struct{ Path string }
		}
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		module = p.Module.Path
		l.pkgs[p.ImportPath] = &p.pkg
		order = append(order, &p.pkg)
	}
	for _, p := range order {
		if _, err := l.Import(p.ImportPath); err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.ImportPath, err)
		}
	}

	g := graph{edges: make(map[types.Object][]types.Object), decls: make(map[types.Object]bool)}
	for _, p := range order {
		g.addPackage(p, p.ImportPath == module)
	}
	g.addDispatch(order)
	for obj := range g.decls {
		_, pkgOK := allowed[obj.Pkg().Path()]
		_, objOK := allowed[qualified(obj)]
		if pkgOK || objOK {
			g.roots = append(g.roots, obj)
		}
	}
	reached := g.reach()

	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var lines []string
	for obj := range g.decls {
		if reached[obj] {
			continue
		}
		pos := fset.Position(obj.Pos())
		file := pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil {
			file = rel
		}
		lines = append(lines, fmt.Sprintf("%s:%d: %s", file, pos.Line, qualified(obj)))
	}
	sort.Strings(lines)
	return lines, nil
}

// qualified is the allow-list key of a declaration.
func qualified(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := namedOf(recv.Type()); named != nil {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

type graph struct {
	edges map[types.Object][]types.Object
	decls map[types.Object]bool // every declaration that must be reached
	roots []types.Object
}

// addPackage records the package's declarations and what each mentions. In
// the root package every exported declaration is a root, and so is every
// exported method of an exported type — its own or, for an alias, the
// target's.
func (g *graph) addPackage(p *pkg, root bool) {
	exported := func(obj types.Object) {
		if root && obj.Exported() {
			g.roots = append(g.roots, obj)
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := p.info.Defs[d.Name]
				g.mentions(p, obj, d)
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Name == "main") {
					g.roots = append(g.roots, obj)
					continue
				}
				g.decls[obj] = true
				if d.Recv == nil {
					exported(obj)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						obj := p.info.Defs[spec.Name]
						g.decls[obj] = true
						g.mentions(p, obj, spec)
						exported(obj)
						if root && obj.Exported() {
							g.roots = append(g.roots, exportedMethods(types.Unalias(obj.Type()))...)
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							obj := p.info.Defs[name]
							if obj == nil { // a blank identifier in a var declaration has no object
								obj = types.NewVar(name.Pos(), p.types, "_", nil)
							}
							g.mentions(p, obj, spec)
							if name.Name == "_" {
								g.roots = append(g.roots, obj)
								continue
							}
							g.decls[obj] = true
							exported(obj)
						}
					}
				}
			}
		}
	}
}

// mentions adds an edge from obj to every object named under n (an edge out
// of the module leads nowhere).
func (g *graph) mentions(p *pkg, obj types.Object, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		used := p.info.Uses[id]
		if fn, ok := used.(*types.Func); ok {
			used = fn.Origin()
		}
		if used != nil && used.Pkg() != nil && used != obj {
			g.edges[obj] = append(g.edges[obj], used)
		}
		return true
	})
}

// exportedMethods lists the exported methods of t and *t.
func exportedMethods(t types.Type) []types.Object {
	named := namedOf(t)
	if named == nil {
		return nil
	}
	var out []types.Object
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Exported() {
			out = append(out, m.Origin())
		}
	}
	return out
}

// addDispatch gives every type an edge to each of its methods that an
// interface it satisfies names — an interface of the module, of a package it
// imports, or written inline — so a method called only dynamically is
// reached with its type.
func (g *graph) addDispatch(pkgs []*pkg) {
	var ifaces []*types.Interface
	seen := make(map[*types.Package]bool)
	var scan func(tp *types.Package)
	scan = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			scan(imp)
		}
	}
	errorType := types.Universe.Lookup("error").Type()
	ifaces = append(ifaces, errorType.Underlying().(*types.Interface))
	// errors.Is/As/Unwrap find these through interfaces written inline in
	// the standard library, which the scan below does not see.
	method := func(name string, params, results []*types.Var) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, types.NewTuple(params...), types.NewTuple(results...), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	v := func(t types.Type) []*types.Var { return []*types.Var{types.NewVar(token.NoPos, nil, "", t)} }
	ifaces = append(ifaces,
		method("Unwrap", nil, v(errorType)),
		method("Is", v(errorType), v(types.Typ[types.Bool])),
		method("As", v(types.NewInterfaceType(nil, nil)), v(types.Typ[types.Bool])))
	for _, p := range pkgs {
		scan(p.types)
		for expr, tv := range p.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.NumMethods() == 0 || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil && sel.Obj().Pkg() == p.types {
						g.edges[tn] = append(g.edges[tn], sel.Obj())
					}
				}
			}
		}
	}
}

func (g *graph) reach() map[types.Object]bool {
	reached := make(map[types.Object]bool)
	work := append([]types.Object(nil), g.roots...)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		work = append(work, g.edges[obj]...)
	}
	return reached
}
