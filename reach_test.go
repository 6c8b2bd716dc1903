package freejoin

import (
	"bufio"
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
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The reachability ratchet. TestUnreached type-checks every non-test
// package of the module, walks the code the front ends can reach from
// their main functions, and compares every top-level declaration under
// internal/ that the walk misses against testdata/unreached.txt. The
// list may only shrink: a new unreached declaration fails the test, and
// so does a listed one that is reached again or gone.
//
// `make deadcode` runs it with -v, which also prints the wider report
// with every main in the repository as a root.

// frontEnds are the served front ends: the list is checked against them.
var frontEnds = []string{"cmd/ojserver", "cmd/ojshell", "benchmark"}

// otherMains are the remaining programs, roots of the wider report only.
var otherMains = []string{"cmd/reorder"}

// stdCalledNames are method names the standard library calls through
// an interface value (fmt, errors, encoding/json, sort, container/heap,
// io, net/http), so a reached type's method of that name is reached.
var stdCalledNames = map[string]bool{
	"String": true, "Error": true, "Format": true, "MarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
	"Unwrap": true, "Is": true, "As": true,
}

const unreachedFile = "testdata/unreached.txt"

var ownerRE = regexp.MustCompile(`^(item [0-9]+[a-z]?|paper|test-support)$`)

type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Deps       []string
}

// decl is one top-level declaration: a func, a method, or one spec of
// a type, var or const declaration. Methods of a type fold into the
// type's entry while the type itself is unreached.
type decl struct {
	id    string // "<package dir>.<name>", e.g. internal/exec.(*Scan).Next
	lines int    // source lines, doc comment excluded
	objs  []types.Object
	recv  *types.TypeName // receiver type of a method
	uses  []types.Object  // package-level objects, fields and methods it uses
}

type program struct {
	module string
	pkgs   map[string]*listedPkg // by import path
	order  []string              // module packages in dependency order
	decls  []*decl
	byObj  map[types.Object]*decl
	inits  map[string][]types.Object // init funcs and package vars by import path
	mains  map[string]types.Object   // main func by package dir
}

func loadProgram(t *testing.T) *program {
	t.Helper()
	modOut, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	p := &program{
		module: strings.TrimSpace(string(modOut)),
		pkgs:   map[string]*listedPkg{},
		byObj:  map[types.Object]*decl{},
		inits:  map[string][]types.Object{},
		mains:  map[string]types.Object{},
	}
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for dec.More() {
		lp := &listedPkg{}
		if err := dec.Decode(lp); err != nil {
			t.Fatal(err)
		}
		p.pkgs[lp.ImportPath] = lp
		if !lp.Standard {
			p.order = append(p.order, lp.ImportPath)
		}
	}

	// The standard library comes from source; without cgo its pure-Go
	// fallbacks type-check everywhere.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})
	for _, path := range p.order {
		lp := p.pkgs[path]
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		checked[path] = pkg
		p.collect(fset, path, files, info)
	}
	return p
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// collect records the package's top-level declarations with what each
// one uses, its init functions and package variables, and its main.
func (p *program) collect(fset *token.FileSet, path string, files []*ast.File, info *types.Info) {
	dir := strings.TrimPrefix(strings.TrimPrefix(path, p.module), "/")
	add := func(d *decl, from, to token.Pos, node ast.Node) {
		d.lines = fset.Position(to).Line - fset.Position(from).Line + 1
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := origin(info.Uses[id]); obj != nil && obj.Pkg() != nil {
					d.uses = append(d.uses, obj)
				}
			}
			return true
		})
		for _, obj := range d.objs {
			p.byObj[obj] = d
		}
		p.decls = append(p.decls, d)
	}
	for _, f := range files {
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[gd.Name].(*types.Func)
				d := &decl{objs: []types.Object{fn}}
				if gd.Recv == nil {
					d.id = dir + "." + gd.Name.Name
					switch {
					case gd.Name.Name == "init":
						p.inits[path] = append(p.inits[path], fn)
					case gd.Name.Name == "main" && f.Name.Name == "main":
						p.mains[dir] = fn
					}
				} else {
					recv := fn.Type().(*types.Signature).Recv().Type()
					star := ""
					if ptr, ok := recv.(*types.Pointer); ok {
						recv, star = ptr.Elem(), "*"
					}
					d.recv = recv.(*types.Named).Origin().Obj()
					d.id = fmt.Sprintf("%s.(%s%s).%s", dir, star, d.recv.Name(), gd.Name.Name)
				}
				add(d, gd.Pos(), gd.End(), gd)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					from, to := spec.Pos(), spec.End()
					if len(gd.Specs) == 1 {
						from, to = gd.Pos(), gd.End()
					}
					switch s := spec.(type) {
					case *ast.TypeSpec:
						d := &decl{id: dir + "." + s.Name.Name, objs: []types.Object{info.Defs[s.Name]}}
						add(d, from, to, s)
					case *ast.ValueSpec:
						d := &decl{}
						var names []string
						for _, n := range s.Names {
							names = append(names, n.Name)
							if obj := info.Defs[n]; obj != nil {
								d.objs = append(d.objs, obj)
								if gd.Tok == token.VAR {
									p.inits[path] = append(p.inits[path], obj)
								}
							}
						}
						d.id = dir + "." + strings.Join(names, ",")
						add(d, from, to, s)
					}
				}
			}
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reach closes over types.Info.Uses from the main functions of the
// given package dirs (a trailing "/" takes every main below it) plus
// the init functions and package variables of their import closures.
func (p *program) reach(roots []string) map[*decl]bool {
	reached := map[*decl]bool{}
	var work []*decl
	mark := func(obj types.Object) {
		if d := p.byObj[origin(obj)]; d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	closure := map[string]bool{}
	for dir, fn := range p.mains {
		for _, r := range roots {
			if dir == r || (strings.HasSuffix(r, "/") && strings.HasPrefix(dir, r)) {
				mark(fn)
				path := p.module + "/" + dir
				closure[path] = true
				for _, dep := range p.pkgs[path].Deps {
					closure[dep] = true
				}
			}
		}
	}
	for path := range closure {
		for _, obj := range p.inits[path] {
			mark(obj)
		}
	}
	// Interface methods used so far, by name; named types reached so far.
	ifaceMethods := map[string][]*types.Func{}
	var named []*types.TypeName
	seenIface := map[types.Object]bool{}
	for {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, obj := range d.objs {
				if tn, ok := obj.(*types.TypeName); ok {
					named = append(named, tn)
				}
			}
			for _, obj := range d.uses {
				fn, ok := obj.(*types.Func)
				if ok && !seenIface[fn] {
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						seenIface[fn] = true
						ifaceMethods[fn.Name()] = append(ifaceMethods[fn.Name()], fn)
					}
				}
				mark(obj)
			}
		}
		// Methods of reached types that the standard library or a reached
		// interface method can call. Promoted methods are included.
		for _, tn := range named {
			if types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < mset.Len(); i++ {
				m := mset.At(i).Obj()
				if stdCalledNames[m.Name()] || implementsAny(tn.Type(), ifaceMethods[m.Name()]) {
					mark(m)
				}
			}
		}
		if len(work) == 0 {
			break
		}
	}
	return reached
}

// implementsAny reports whether t or *t (whose method set includes t's)
// implements the interface of one of methods.
func implementsAny(t types.Type, methods []*types.Func) bool {
	for _, m := range methods {
		iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if ok && types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// unreached lists the declarations under internal/ outside reached, by
// id, with each unreached type's unreached methods folded into it.
func (p *program) unreached(reached map[*decl]bool) map[string]int {
	out := map[string]int{}
	typeID := map[*types.TypeName]string{}
	for _, d := range p.decls {
		if len(d.objs) == 1 {
			if tn, ok := d.objs[0].(*types.TypeName); ok {
				typeID[tn] = d.id
			}
		}
	}
	for _, d := range p.decls {
		if reached[d] || !strings.HasPrefix(d.id, "internal/") {
			continue
		}
		id := d.id
		if d.recv != nil && !reached[p.byObj[d.recv]] {
			id = typeID[d.recv]
		}
		out[id] += d.lines
	}
	return out
}

type listed struct {
	lines int
	owner string
	line  int
}

func readUnreachedList(t *testing.T) map[string]listed {
	t.Helper()
	f, err := os.Open(unreachedFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]listed{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("%s:%d: want `<declaration> <lines> <owner>`, got %q", unreachedFile, n, line)
		}
		lines, err := strconv.Atoi(fields[1])
		owner := strings.Join(fields[2:], " ")
		if err != nil || !ownerRE.MatchString(owner) {
			t.Fatalf("%s:%d: want `<declaration> <lines> <owner>` with owner `item N`, `paper` or `test-support`, got %q", unreachedFile, n, line)
		}
		if _, dup := out[fields[0]]; dup {
			t.Fatalf("%s:%d: %s listed twice", unreachedFile, n, fields[0])
		}
		out[fields[0]] = listed{lines, owner, n}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestUnreached(t *testing.T) {
	p := loadProgram(t)
	got := p.unreached(p.reach(frontEnds))
	want := readUnreachedList(t)

	total := 0
	for _, id := range sortedKeys(got) {
		l, ok := want[id]
		switch {
		case !ok:
			t.Errorf("%s (%d lines) is unreached from %s and not in %s: delete it, or list it with the item that will",
				id, got[id], strings.Join(frontEnds, ", "), unreachedFile)
		case l.lines != got[id]:
			t.Errorf("%s:%d: %s has %d unreached lines, listed as %d", unreachedFile, l.line, id, got[id], l.lines)
		}
		total += got[id]
	}
	for id, l := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s:%d: %s is reached now or gone: remove its line", unreachedFile, l.line, id)
		}
	}
	t.Logf("%s: %d declarations, %d lines unreached from %s", unreachedFile, len(want), total, strings.Join(frontEnds, ", "))

	wide := p.unreached(p.reach(append(append([]string{}, frontEnds...), otherMains...)))
	wideTotal := 0
	for _, id := range sortedKeys(wide) {
		wideTotal += wide[id]
		t.Logf("  unreached from every main: %-60s %4d  %s", id, wide[id], want[id].owner)
	}
	t.Logf("%d declarations, %d lines unreached from every main", len(wide), wideTotal)
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
