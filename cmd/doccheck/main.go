// Command doccheck enforces the repository's documentation contract: every
// package must open with a package doc comment, because the package
// comments are where each package states which section, figure or equation
// of the paper it implements. A package without one is a package whose
// paper mapping has been lost.
//
// Usage:
//
//	doccheck [-exported dir,dir...] [-schema md=pkgdir] [-api md=pkgdir] [dir ...]
//
// With no arguments it walks the current directory. For every directory
// containing non-test Go files it requires at least one file to carry a
// doc comment on its package clause (the standard `// Package foo ...`
// form; for main packages, a `// Command foo ...` description). Vendored
// code, testdata and hidden directories are skipped. It prints one line
// per violation and exits non-zero if any are found, making it a cheap
// go-vet-style gate for `make ci`.
//
// The same walk checks reachability when the directory holds a go.mod:
// every exported package-level identifier and method declared under
// internal/ must be referenced from non-test code somewhere in the tree —
// cmd/, examples/, the root package and nested modules such as bench/e2e
// all count. References are resolved with go/types (each package is
// type-checked once; the standard library comes from the compiler's export
// data), not matched by name. A method also counts as reached when its
// receiver type implements an interface that declares it (fmt.Stringer,
// error, json.Marshaler, the repository's own interfaces, and the
// Unwrap/Is/As methods the errors package finds by assertion). An identifier
// with no such reference passes only if its doc comment carries one of two
// tags and some _test.go file references it:
//
//   - `paper: §N` when a test asserts the paper claim it reproduces;
//   - `test seam` when another package's tests use it.
//
// Anything else is dead API and is reported.
//
// -exported names package directories (comma-separated) whose exported
// type declarations must each carry their own doc comment — the report
// and campaign schemas are consumed through godoc, so an undocumented
// exported type there is a schema field nobody can interpret.
//
// -schema takes a markdownfile=packagedir pair and cross-checks the two:
// every `json:"..."` tag name on an exported struct in the package must
// appear as a backticked field name in one of the markdown file's table
// rows, and every backticked first-column name in a table row must be a
// real tag — so docs/REPORT_SCHEMA.md can never drift from the Go structs
// that define the wire format.
//
// -api takes a markdownfile=packagedir pair and cross-checks the HTTP API
// contract document against the serving package: every route pattern
// registered on the mux (a "METHOD /path" string literal) must have a
// matching `### `METHOD /path“ heading and vice versa, the document's
// "Error codes" table must list exactly the package's ErrCode constant
// values, and its "Error envelope" table must list exactly the ErrorBody
// struct's json tags — so docs/API.md can never drift from the routes,
// taxonomy and envelope the server actually speaks.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	exported := flag.String("exported", "", "comma-separated package dirs whose exported types must carry doc comments")
	schema := flag.String("schema", "", "markdownfile=packagedir pair to cross-check field docs against json struct tags")
	api := flag.String("api", "", "markdownfile=packagedir pair to cross-check an API contract doc against mux routes, error codes and the error envelope")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var bad []string
	for _, root := range roots {
		violations, err := check(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		bad = append(bad, violations...)
	}
	for _, dir := range splitList(*exported) {
		violations, err := checkExported(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		bad = append(bad, violations...)
	}
	if *schema != "" {
		md, pkg, ok := strings.Cut(*schema, "=")
		if !ok {
			fmt.Fprintln(os.Stderr, "doccheck: -schema wants markdownfile=packagedir")
			os.Exit(2)
		}
		violations, err := checkSchema(md, pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		bad = append(bad, violations...)
	}
	if *api != "" {
		md, pkg, ok := strings.Cut(*api, "=")
		if !ok {
			fmt.Fprintln(os.Stderr, "doccheck: -api wants markdownfile=packagedir")
			os.Exit(2)
		}
		violations, err := checkAPI(md, pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		bad = append(bad, violations...)
	}
	sort.Strings(bad)
	for _, v := range bad {
		fmt.Println(v)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d violation(s)\n", len(bad))
		os.Exit(1)
	}
}

// check walks root and returns one violation line per package without a
// doc comment and, when root holds a go.mod, per unreached exported
// identifier under internal/ (see reach.go).
func check(root string) ([]string, error) {
	r := newReach()
	if err := r.load(root); err != nil {
		return nil, err
	}
	var bad []string
	for _, pkg := range r.pkgs {
		documented := false
		for _, f := range pkg.files {
			documented = documented || strings.TrimSpace(f.Doc.Text()) != ""
		}
		if len(pkg.files) > 0 && !documented {
			bad = append(bad, fmt.Sprintf("%s: package %s has no package doc comment", pkg.dir, pkg.files[0].Name.Name))
		}
	}
	if r.module == "" {
		return bad, nil // no go.mod: no import paths to resolve
	}
	unreached, err := r.unreached(root)
	return append(bad, unreached...), err
}

// checkExported parses one package directory (non-recursive) and returns
// a violation per exported type declaration without a doc comment. A
// type in a grouped declaration counts as documented if either the spec
// or the (single-spec) declaration carries the comment — the forms godoc
// renders.
func checkExported(dir string) ([]string, error) {
	var bad []string
	err := eachPackageFile(dir, func(path string, f *ast.File) {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if !ts.Name.IsExported() {
					continue
				}
				documented := ts.Doc != nil && strings.TrimSpace(ts.Doc.Text()) != ""
				if !documented && len(gd.Specs) == 1 {
					documented = gd.Doc != nil && strings.TrimSpace(gd.Doc.Text()) != ""
				}
				if !documented {
					bad = append(bad, fmt.Sprintf("%s: exported type %s has no doc comment", path, ts.Name.Name))
				}
			}
		}
	})
	return bad, err
}

// checkSchema cross-checks a markdown schema document against the json
// struct tags of a package's exported structs, in both directions.
func checkSchema(mdPath, pkgDir string) ([]string, error) {
	tags := map[string]bool{}
	err := eachPackageFile(pkgDir, func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				for _, field := range st.Fields.List {
					if field.Tag == nil {
						continue
					}
					raw := strings.Trim(field.Tag.Value, "`")
					name, _, _ := strings.Cut(reflect.StructTag(raw).Get("json"), ",")
					if name != "" && name != "-" {
						tags[name] = true
					}
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	text, err := os.ReadFile(mdPath)
	if err != nil {
		return nil, err
	}
	// A documented field is the first backticked token of a markdown table
	// row. Rows whose first cell isn't backticked (headers, separators,
	// prose tables) don't count.
	documented := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cell := strings.TrimSpace(strings.SplitN(strings.TrimPrefix(line, "|"), "|", 2)[0])
		if len(cell) > 2 && strings.HasPrefix(cell, "`") && strings.HasSuffix(cell, "`") {
			documented[strings.Trim(cell, "`")] = true
		}
	}

	var bad []string
	for tag := range tags {
		if !documented[tag] {
			bad = append(bad, fmt.Sprintf("%s: field `%s` (a json tag in %s) is not documented", mdPath, tag, pkgDir))
		}
	}
	for name := range documented {
		if !tags[name] {
			bad = append(bad, fmt.Sprintf("%s: documented field `%s` is not a json tag of any exported struct in %s", mdPath, name, pkgDir))
		}
	}
	return bad, nil
}

// routePattern is the shape of a Go 1.22 ServeMux method-qualified route
// pattern — the same shape both as a string literal in the serving
// package and inside a backticked `### ` heading of the contract doc.
var routePattern = regexp.MustCompile(`^(GET|HEAD|POST|PUT|PATCH|DELETE) /\S*$`)

// checkAPI cross-checks an API contract document against the serving
// package, in both directions:
//
//   - every "METHOD /path" string literal (the mux route patterns) must
//     have a `### `METHOD /path“ heading, and every such heading must
//     name a registered route;
//   - the document section headed "Error codes" must table exactly the
//     string values of the package's ErrCode constants;
//   - the section headed "Error envelope" must table exactly the json
//     tags of the package's ErrorBody struct.
func checkAPI(mdPath, pkgDir string) ([]string, error) {
	routes := map[string]bool{}
	codes := map[string]bool{}
	envelope := map[string]bool{}
	err := eachPackageFile(pkgDir, func(_ string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if v, err := strconv.Unquote(lit.Value); err == nil && routePattern.MatchString(v) {
				routes[v] = true
			}
			return true
		})
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.CONST:
				// The declared type carries over within a grouped const block
				// until another spec states its own.
				typ := ""
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if id, isIdent := vs.Type.(*ast.Ident); isIdent {
						typ = id.Name
					} else if vs.Type != nil {
						typ = ""
					}
					if typ != "ErrCode" {
						continue
					}
					for _, v := range vs.Values {
						if lit, isLit := v.(*ast.BasicLit); isLit && lit.Kind == token.STRING {
							if s, err := strconv.Unquote(lit.Value); err == nil {
								codes[s] = true
							}
						}
					}
				}
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, isStruct := ts.Type.(*ast.StructType)
					if !isStruct || ts.Name.Name != "ErrorBody" {
						continue
					}
					for _, field := range st.Fields.List {
						if field.Tag == nil {
							continue
						}
						raw := strings.Trim(field.Tag.Value, "`")
						name, _, _ := strings.Cut(reflect.StructTag(raw).Get("json"), ",")
						if name != "" && name != "-" {
							envelope[name] = true
						}
					}
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}

	text, err := os.ReadFile(mdPath)
	if err != nil {
		return nil, err
	}
	// Markdown side: headings open named sections; a backticked heading
	// shaped like a route pattern documents that route; a section's
	// documented names are the backticked first cells of its table rows.
	headings := map[string]bool{}
	sections := map[string]map[string]bool{}
	section := ""
	for _, line := range strings.Split(string(text), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			title := strings.TrimSpace(strings.TrimLeft(line, "#"))
			section = title
			if len(title) > 2 && strings.HasPrefix(title, "`") && strings.HasSuffix(title, "`") {
				if inner := strings.Trim(title, "`"); routePattern.MatchString(inner) {
					headings[inner] = true
				}
			}
			continue
		}
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cell := strings.TrimSpace(strings.SplitN(strings.TrimPrefix(line, "|"), "|", 2)[0])
		if len(cell) > 2 && strings.HasPrefix(cell, "`") && strings.HasSuffix(cell, "`") {
			if sections[section] == nil {
				sections[section] = map[string]bool{}
			}
			sections[section][strings.Trim(cell, "`")] = true
		}
	}

	var bad []string
	diff := func(documented, actual map[string]bool, kind, docPlace string) {
		for name := range actual {
			if !documented[name] {
				bad = append(bad, fmt.Sprintf("%s: %s `%s` is not documented (missing from %s)",
					mdPath, kind, name, docPlace))
			}
		}
		for name := range documented {
			if !actual[name] {
				bad = append(bad, fmt.Sprintf("%s: %s documents %s `%s`, which does not exist in %s",
					mdPath, docPlace, kind, name, pkgDir))
			}
		}
	}
	diff(headings, routes, "route", "the `### `METHOD /path`` headings")
	diff(sections["Error codes"], codes, "error code", "the \"Error codes\" table")
	diff(sections["Error envelope"], envelope, "envelope field", "the \"Error envelope\" table")
	return bad, nil
}

// eachPackageFile parses every non-test .go file directly in dir (full
// syntax, comments retained) and calls fn on it.
func eachPackageFile(dir string, fn func(path string, f *ast.File)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	seen := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		seen = true
		fn(path, f)
	}
	if !seen {
		return fmt.Errorf("%s: no Go files", dir)
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
