package repro

// TestReachability is the reachability census of ROADMAP aim 2: it finds
// API that only tests use, so dead code and dead knobs cannot pile up
// unnoticed. It type-checks the non-test packages of this module and of
// benchmark/ from source (the standard library through the compiler's
// export data) and reports two kinds of hits in repro/internal/...:
//
//   - package-level identifiers and methods that no reached non-test code
//     references. cmd/, examples/ and benchmark/ are the roots; an
//     identifier used only by unreached code is unreached too, and a method
//     counts as reached once its type is when any interface the program
//     names has a method of that name;
//   - exported struct fields that non-test code reads but never writes, or
//     never mentions at all: a knob that nothing sets is always zero.
//
// Every hit must be deleted or named in testdata/test-only.txt with the
// reason it stays (an oracle a test compares against, a leak guard, a
// knob only a test needs). A listed name that production code reaches,
// or that no longer exists, fails too, so the list stays exact.

import (
	"bufio"
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
	"reflect"
	"sort"
	"strings"
	"testing"
)

const (
	definerPrefix = "repro/internal/"
	testOnlyList  = "testdata/test-only.txt"
)

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList runs `go list -deps -export -json ./...` in dir. -deps prints
// every package after its dependencies, which is the order to check them.
func goList(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// census holds the type-checked program.
type census struct {
	fset    *token.FileSet
	exports map[string]string // standard-library import path → export data file
	std     types.Importer
	checked map[string]*types.Package
	files   map[*types.Package][]*ast.File
	infos   map[*types.Package]*types.Info
	order   []*types.Package
}

func (c *census) Import(path string) (*types.Package, error) {
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

func (c *census) load(t *testing.T, pkgs []listedPackage) {
	t.Helper()
	for _, p := range pkgs {
		if p.Standard {
			c.exports[p.ImportPath] = p.Export
		}
	}
	for _, p := range pkgs {
		if p.Standard || c.checked[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(c.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: c}).Check(p.ImportPath, c.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		c.checked[p.ImportPath] = pkg
		c.files[pkg] = files
		c.infos[pkg] = info
		c.order = append(c.order, pkg)
	}
}

func loadProgram(t *testing.T) *census {
	t.Helper()
	c := &census{
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		checked: map[string]*types.Package{},
		files:   map[*types.Package][]*ast.File{},
		infos:   map[*types.Package]*types.Info{},
	}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := c.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	c.load(t, goList(t, "."))
	c.load(t, goList(t, "benchmark"))
	return c
}

func isDefiner(pkg *types.Package) bool {
	return pkg != nil && strings.HasPrefix(pkg.Path(), definerPrefix)
}

// origin maps an instantiated generic function, method or field back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// fieldOf is the declared field obj names, or nil.
func fieldOf(obj types.Object) *types.Var {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return v.Origin()
	}
	return nil
}

// recvType is the type a method is declared on.
func recvType(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// name is the identifier as testdata/test-only.txt spells it:
// package.Name, package.Type.Method or package.Type.Field.
func name(pkg *types.Package, parts ...string) string {
	return strings.Join(append([]string{strings.TrimPrefix(pkg.Path(), definerPrefix)}, parts...), ".")
}

type hit struct {
	pos  token.Position
	name string
	why  string
}

// unreached lists the definers' package-level identifiers and methods
// that no root reaches. listed names more roots (testdata/test-only.txt).
func (c *census) unreached(listed map[string]int) []hit {
	decls := map[types.Object]string{} // declaration → its listed name
	edges := map[types.Object][]types.Object{}
	methods := map[*types.TypeName][]*types.Func{}
	var roots []types.Object
	ifaceNames := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}

	for _, pkg := range c.order {
		info := c.infos[pkg]
		for _, tv := range info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, imp := range pkg.Imports() {
			for _, n := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(n).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		definer := isDefiner(pkg)
		// uses adds an edge from every owner to each definer identifier
		// node uses; in a user package each one is a root.
		uses := func(node ast.Node, owners []types.Object) {
			ast.Inspect(node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				used := info.Uses[id]
				if used == nil || !isDefiner(used.Pkg()) {
					return true
				}
				used = origin(used)
				if !definer {
					roots = append(roots, used)
				}
				for _, o := range owners {
					edges[o] = append(edges[o], used)
				}
				return true
			})
		}
		// own records what id declares and returns it as an owner.
		own := func(id *ast.Ident, parts ...string) []types.Object {
			obj := info.Defs[id]
			if obj == nil || id.Name == "_" {
				return nil
			}
			decls[obj] = name(pkg, parts...)
			return []types.Object{obj}
		}
		for _, f := range c.files[pkg] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := info.Defs[d.Name].(*types.Func)
					var owners []types.Object
					if d.Recv == nil {
						owners = own(d.Name, d.Name.Name)
						if d.Name.Name == "init" {
							roots = append(roots, fn)
						}
					} else if tn := recvType(fn); tn != nil {
						owners = own(d.Name, tn.Name(), fn.Name())
						methods[tn] = append(methods[tn], fn)
					}
					uses(d, owners)
				case *ast.GenDecl:
					var block []types.Object
					implicit := false
					for _, s := range d.Specs {
						var owners []types.Object
						switch s := s.(type) {
						case *ast.TypeSpec:
							owners = own(s.Name, s.Name.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								owners = append(owners, own(id, id.Name)...)
							}
							implicit = implicit || len(s.Values) == 0
						}
						uses(s, owners)
						block = append(block, owners...)
					}
					// The constants of an iota block stand or fall
					// together: deleting one renumbers the rest.
					if d.Tok == token.CONST && implicit && len(block) > 1 {
						for _, o := range block[1:] {
							edges[block[0]] = append(edges[block[0]], o)
							edges[o] = append(edges[o], block[0])
						}
					}
				}
			}
		}
	}
	for obj, n := range decls {
		if listed[n] > 0 {
			roots = append(roots, obj)
		}
	}

	reached := map[types.Object]bool{}
	for len(roots) > 0 {
		obj := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		roots = append(roots, edges[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if ifaceNames[m.Name()] {
					roots = append(roots, m)
				}
			}
		}
	}

	var hits []hit
	for obj, n := range decls {
		if isDefiner(obj.Pkg()) && !reached[obj] {
			hits = append(hits, hit{c.fset.Position(obj.Pos()), n, "no reached non-test code references it"})
		}
	}
	return hits
}

// unwritten lists the definers' exported struct fields that non-test
// code never writes. A write is an assignment, ++/--, a keyed or
// positional composite literal, taking the address, or calling a
// pointer method on the field; one through a nested selector or an index
// (s.Stats.Sent++, st.Util[k] = v) also writes every field on the path.
// A field with a json tag counts as written by decoding.
func (c *census) unwritten() []hit {
	type field struct {
		name          string
		reads, writes int
	}
	fields := map[*types.Var]*field{}
	for _, pkg := range c.order {
		if !isDefiner(pkg) {
			continue
		}
		for _, n := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				written := 0
				if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
					written = 1
				}
				fields[f] = &field{name: name(pkg, tn.Name(), f.Name()), writes: written}
			}
		}
	}

	for _, pkg := range c.order {
		info := c.infos[pkg]
		write := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.IndexListExpr:
					e = x.X
				case *ast.SliceExpr:
					e = x.X
				case *ast.SelectorExpr:
					if f := fields[fieldOf(info.Uses[x.Sel])]; f != nil {
						f.writes++
					}
					e = x.X
				default:
					return
				}
			}
		}
		keys := map[*ast.Ident]bool{}
		for _, file := range c.files[pkg] {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						write(l)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						write(n.Key)
						if n.Value != nil {
							write(n.Value)
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					s := info.Selections[sel]
					if s == nil || s.Kind() != types.MethodVal {
						break
					}
					_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrX := s.Recv().Underlying().(*types.Pointer)
					if ptrRecv && !ptrX {
						write(sel.X)
					}
				case *ast.CompositeLit:
					t := info.Types[n].Type
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem() // an elided &T in []*T{{...}}
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							id := kv.Key.(*ast.Ident)
							keys[id] = true
							if f := fields[fieldOf(info.Uses[id])]; f != nil {
								f.writes++
							}
						} else if f := fields[fieldOf(st.Field(i))]; f != nil {
							f.writes++
						}
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			if f := fields[fieldOf(obj)]; f != nil && !keys[id] {
				f.reads++
			}
		}
	}

	var hits []hit
	for v, f := range fields {
		switch {
		case f.writes > 0:
		case f.reads > 0:
			hits = append(hits, hit{c.fset.Position(v.Pos()), f.name, "non-test code reads it but never writes it"})
		default:
			hits = append(hits, hit{c.fset.Position(v.Pos()), f.name, "no non-test code reads or writes it"})
		}
	}
	return hits
}

// outermost drops the methods and fields of a type that is a hit itself:
// they go when it goes, and stay when it is listed.
func outermost(hits []hit) []hit {
	types := map[string]bool{}
	for _, h := range hits {
		types[h.name] = true
	}
	var out []hit
	for _, h := range hits {
		if i := strings.LastIndexByte(h.name, '.'); !types[h.name[:i]] {
			out = append(out, h)
		}
	}
	return out
}

// readTestOnly parses testdata/test-only.txt: one "name reason" per line,
// blank lines and # comments ignored.
func readTestOnly(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open(testOnlyList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]int{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		id, reason, _ := strings.Cut(text, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", testOnlyList, line, id)
		}
		if listed[id] != 0 {
			t.Errorf("%s:%d: %s is listed twice", testOnlyList, line, id)
		}
		listed[id] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return listed
}

func TestReachability(t *testing.T) {
	c := loadProgram(t)
	listed := readTestOnly(t)

	// A hit is acceptable when it is listed, or when only listed
	// identifiers reach it; a listed name must itself be a hit.
	unwritten := c.unwritten()
	hits := outermost(append(c.unreached(nil), unwritten...))
	kept := map[string]bool{}
	for _, h := range outermost(append(c.unreached(listed), unwritten...)) {
		kept[h.name] = true
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	isHit := map[string]bool{}
	var fails []string
	for _, h := range hits {
		isHit[h.name] = true
		if listed[h.name] == 0 && kept[h.name] {
			rel, err := filepath.Rel(root, h.pos.Filename)
			if err != nil {
				rel = h.pos.Filename
			}
			fails = append(fails, fmt.Sprintf("%s:%d: %s: %s; delete it or list it in %s with the reason it stays",
				filepath.ToSlash(rel), h.pos.Line, h.name, h.why, testOnlyList))
		}
	}
	for id, line := range listed {
		if !isHit[id] {
			fails = append(fails, fmt.Sprintf("%s:%d: %s is listed but is not a hit (production code reaches it, or it no longer exists); remove the line",
				testOnlyList, line, id))
		}
	}
	sort.Strings(fails)
	for _, f := range fails {
		t.Error(f)
	}
	t.Logf("%d packages checked; %d hits, %d identifiers listed in %s", len(c.order), len(hits), len(listed), testOnlyList)
}
