package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The two doc-comment tags that excuse an exported identifier with no
// non-test reference, provided some _test.go file references it.
var (
	paperTag = regexp.MustCompile(`paper: §\d`)
	seamTag  = regexp.MustCompile(`test seam`)
)

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// errorsContract names the methods that errors.Is, errors.As and
// errors.Unwrap find on an error by type assertion inside unexported
// code, so no exported interface declares them.
var errorsContract = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// srcPkg is one directory's Go files, split the way `go test` splits
// them: the package proper, its in-package tests and its external
// (_test-suffixed) tests.
type srcPkg struct {
	path, dir    string
	files, tests []*ast.File
	xtests       []*ast.File
	decls        []decl // judged declarations; only under root's internal/
	checked      *types.Package
	defs         map[*ast.Ident]types.Object
	checking     bool // being type-checked: a repeat import is a cycle
}

// decl is one exported top-level declaration of a non-test file.
type decl struct {
	ident *ast.Ident
	kind  string // func, method, type, var or const
	doc   *ast.CommentGroup
}

// reach type-checks a module tree and records which objects are
// referenced from where. Objects are keyed by "pkgpath.Name" or
// "pkgpath.Recv.Name", so the same declaration seen by the package's own
// check and by its test-augmented check is one key.
type reach struct {
	module   string // root's module path; "" when root holds no go.mod
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*srcPkg
	recvs    map[token.Pos]bool      // receiver type names: not references
	spans    map[string][2]token.Pos // a declaration's own extent
	prodRefs map[string]bool
	testRefs map[string]bool
	ifaces   []*types.Interface
	seen     map[*types.Package]bool
}

func newReach() *reach {
	return &reach{
		fset:     token.NewFileSet(),
		pkgs:     map[string]*srcPkg{},
		recvs:    map[token.Pos]bool{},
		spans:    map[string][2]token.Pos{},
		prodRefs: map[string]bool{},
		testRefs: map[string]bool{},
		ifaces:   []*types.Interface{errorIface},
		seen:     map[*types.Package]bool{},
	}
}

// unreached reports every exported package-level identifier or method
// declared under root's internal/ that no non-test code in the loaded
// tree references, unless its doc comment carries a `paper: §N` or `test
// seam` tag and a _test.go file references it. References are resolved
// by go/types; code in nested modules (a go.mod below root) counts. A
// method is also reached when its receiver type implements an interface
// that declares it.
func (r *reach) unreached(root string) ([]string, error) {
	exports, err := r.stdExports()
	if err != nil {
		return nil, err
	}
	r.std = importer.ForCompiler(r.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	paths := make([]string, 0, len(r.pkgs))
	for p := range r.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if len(r.pkgs[p].files) == 0 {
			continue // tests alone
		}
		if _, err := r.Import(p); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		r.checkTests(r.pkgs[p])
	}

	var bad []string
	for _, p := range paths {
		for _, d := range r.pkgs[p].decls {
			if v := r.judge(root, r.pkgs[p], d); v != "" {
				bad = append(bad, v)
			}
		}
	}
	return bad, nil
}

// load walks root, parses every buildable Go file, and assigns each
// directory its import path from the nearest enclosing go.mod (outside
// any module, its path relative to root). Vendored code, testdata and
// hidden directories are skipped.
func (r *reach) load(root string) error {
	mods := map[string]string{} // module root dir -> module path
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		switch mp, err := modulePath(filepath.Join(dir, "go.mod")); {
		case err == nil:
			mods[dir] = mp
		case !errors.Is(err, fs.ErrNotExist):
			return err
		case dir == root:
			mods[dir] = ""
		}
		modDir := dir
		for _, ok := mods[modDir]; !ok; _, ok = mods[modDir] {
			modDir = filepath.Dir(modDir)
		}
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			return err
		}
		pkg := &srcPkg{path: path.Join(mods[modDir], filepath.ToSlash(rel)), dir: dir}
		under := modDir == root && mods[root] != "" &&
			(rel == "internal" || strings.HasPrefix(filepath.ToSlash(rel), "internal/"))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, fn); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(r.fset, filepath.Join(dir, fn), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			switch {
			case !strings.HasSuffix(fn, "_test.go"):
				pkg.files = append(pkg.files, f)
				r.noteDecls(pkg, f, under)
			case strings.HasSuffix(f.Name.Name, "_test"):
				pkg.xtests = append(pkg.xtests, f)
			default:
				pkg.tests = append(pkg.tests, f)
			}
		}
		if len(pkg.files)+len(pkg.tests)+len(pkg.xtests) > 0 {
			r.pkgs[pkg.path] = pkg
		}
		return nil
	})
	r.module = mods[root]
	return err
}

// noteDecls records the extent of each top-level declaration of f and the
// positions of its methods' receiver type names, so that neither a
// declaration's own body nor a receiver counts as a reference to it. When
// the file lies under internal/ it also queues the exported declarations
// for judging.
func (r *reach) noteDecls(pkg *srcPkg, f *ast.File, under bool) {
	note := func(ident *ast.Ident, kind string, doc *ast.CommentGroup, key string, node ast.Node) {
		r.spans[key] = [2]token.Pos{node.Pos(), node.End()}
		if under && ident.IsExported() {
			pkg.decls = append(pkg.decls, decl{ident, kind, doc})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				note(d.Name, "func", d.Doc, pkg.path+"."+d.Name.Name, d)
				continue
			}
			t := d.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok {
				r.recvs[id.Pos()] = true
				note(d.Name, "method", d.Doc, pkg.path+"."+id.Name+"."+d.Name.Name, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					note(s.Name, "type", specDoc(d, s.Doc), pkg.path+"."+s.Name.Name, s)
				case *ast.ValueSpec:
					kind := "var"
					if d.Tok == token.CONST {
						kind = "const"
					}
					for _, n := range s.Names {
						note(n, kind, specDoc(d, s.Doc), pkg.path+"."+n.Name, s)
					}
				}
			}
		}
	}
}

// specDoc is a spec's own doc comment, or its declaration's when the
// declaration holds that one spec alone.
func specDoc(d *ast.GenDecl, doc *ast.CommentGroup) *ast.CommentGroup {
	if doc == nil && len(d.Specs) == 1 {
		return d.Doc
	}
	return doc
}

// modulePath reads the module directive of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// stdExports maps every package the tree imports from outside itself,
// and their dependencies, to the compiler's export data file. One
// `go list` run builds them all, where the importer's own lookup would
// run one per package.
func (r *reach) stdExports() (map[string]string, error) {
	args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	need := map[string]bool{"unsafe": true} // the importer knows unsafe
	for _, pkg := range r.pkgs {
		for _, files := range [][]*ast.File{pkg.files, pkg.tests, pkg.xtests} {
			for _, f := range files {
				for _, imp := range f.Imports {
					p, err := strconv.Unquote(imp.Path.Value)
					if err == nil && r.pkgs[p] == nil && !need[p] {
						need[p] = true
						args = append(args, p)
					}
				}
			}
		}
	}
	exports := map[string]string{}
	if len(need) == 1 {
		return exports, nil
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if p, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[p] = file
		}
	}
	return exports, nil
}

// Import resolves a tree package by type-checking it once, and anything
// else from the compiler's export data.
func (r *reach) Import(path string) (*types.Package, error) {
	pkg := r.pkgs[path]
	if pkg == nil {
		p, err := r.std.Import(path)
		if err == nil {
			r.collectIfaces(p)
		}
		return p, err
	}
	if pkg.checked != nil {
		return pkg.checked, nil
	}
	if pkg.checking || len(pkg.files) == 0 {
		return nil, fmt.Errorf("cannot import %s: import cycle or no non-test files", path)
	}
	pkg.checking = true
	info := newInfo()
	checked, err := (&types.Config{Importer: r}).Check(path, r.fset, pkg.files, info)
	if err != nil {
		return nil, err
	}
	pkg.checked, pkg.defs = checked, info.Defs
	r.collectIfaces(checked)
	// Interface literals count too: a method set asserted in code is an
	// interface the method satisfies. Only non-test code contributes.
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			r.ifaces = append(r.ifaces, it)
		}
	}
	r.record(info, r.prodRefs)
	return checked, nil
}

// checkTests type-checks a package's in-package tests together with its
// files, then its external tests against that augmented package, and
// records their references as test references. Type errors are ignored
// here: an external test that also imports a dependent of its own
// package sees two copies of it, which `go test` avoids by rebuilding
// the dependents; the references that do resolve are what counts.
func (r *reach) checkTests(pkg *srcPkg) {
	conf := types.Config{Importer: r, Error: func(error) {}}
	aug := pkg.checked
	if len(pkg.tests) > 0 {
		info := newInfo()
		aug, _ = conf.Check(pkg.path, r.fset, append(append([]*ast.File{}, pkg.files...), pkg.tests...), info)
		r.record(info, r.testRefs)
	}
	if len(pkg.xtests) > 0 {
		conf.Importer = importerFunc(func(path string) (*types.Package, error) {
			if path == pkg.path && aug != nil {
				return aug, nil
			}
			return r.Import(path)
		})
		info := newInfo()
		conf.Check(pkg.path+"_test", r.fset, pkg.xtests, info)
		r.record(info, r.testRefs)
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newInfo() *types.Info {
	return &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

// record adds every use of a tree object to refs, except a use inside
// the object's own declaration and a method's receiver type.
func (r *reach) record(info *types.Info, refs map[string]bool) {
	for id, obj := range info.Uses {
		if r.recvs[id.Pos()] {
			continue
		}
		k := objKey(obj)
		if span, ok := r.spans[k]; k == "" || ok && span[0] <= id.Pos() && id.Pos() < span[1] {
			continue
		}
		refs[k] = true
	}
}

// objKey names a package-level object or a concrete method across
// checks; other objects get "".
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			if named := recvNamed(recv.Type()); named != nil {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
			return "" // an interface method
		}
	case *types.Var, *types.Const, *types.TypeName:
	default:
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// collectIfaces gathers the named interfaces of p and, transitively, of
// the packages its export data mentions.
func (r *reach) collectIfaces(p *types.Package) {
	if r.seen[p] {
		return
	}
	r.seen[p] = true
	scope := p.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				r.ifaces = append(r.ifaces, it)
			}
		}
	}
	for _, imp := range p.Imports() {
		r.collectIfaces(imp)
	}
}

// implementsDeclaring reports whether the receiver type of method m
// implements a known interface that declares a method of m's name, or is
// an error whose Unwrap/Is/As the errors package looks for.
func (r *reach) implementsDeclaring(m *types.Func) bool {
	named := recvNamed(m.Type().(*types.Signature).Recv().Type())
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	implements := func(it *types.Interface) bool {
		return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
	}
	if errorsContract[m.Name()] && implements(errorIface) {
		return true
	}
	for _, it := range r.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				if implements(it) {
					return true
				}
				break
			}
		}
	}
	return false
}

// judge returns the violation for one exported declaration under
// internal/, or "" when it is reached or excused.
func (r *reach) judge(root string, pkg *srcPkg, d decl) string {
	obj := pkg.defs[d.ident]
	k := objKey(obj)
	if k == "" || r.prodRefs[k] {
		return ""
	}
	if m, ok := obj.(*types.Func); ok && d.kind == "method" && r.implementsDeclaring(m) {
		return ""
	}
	pos := r.fset.Position(d.ident.Pos())
	file, _ := filepath.Rel(root, pos.Filename)
	at := fmt.Sprintf("%s:%d: exported %s %s", filepath.ToSlash(file), pos.Line, d.kind,
		strings.TrimPrefix(k, path.Dir(pkg.path)+"/"))
	text := d.doc.Text()
	switch tagged := paperTag.MatchString(text) || seamTag.MatchString(text); {
	case tagged && !r.testRefs[k]:
		return at + " is tagged as test-only but no _test.go file references it"
	case tagged:
		return ""
	case r.testRefs[k]:
		return at + " is used only by tests (delete it, or tag its doc comment `paper: §N` or `test seam`)"
	default:
		return at + " is not referenced anywhere (delete it)"
	}
}
