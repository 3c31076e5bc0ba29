package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoTestOnlyExports fails when an exported function, method, type,
// constant or variable declared in internal/ is referenced only from its own
// package's _test.go files, or from nowhere: production packages hold
// production code, and a helper only its package's tests call lives in one
// of their _test.go files. Non-test files anywhere in the module count as
// callers, benchmark/ included. So do other packages' tests: Go shares no
// _test.go code across packages, so a helper several packages' tests use (a
// sequential oracle, the simulator's clock reader) has to be exported.
//
// It reads syntax only (go/parser, go/ast), so it matches by name: a
// package-level identifier counts as used when another package selects it
// through that package's import name, or its own package names it outside
// its declaration in a non-test file; a method counts as used when a
// selector names it in a non-test file or in another package's test.
// Methods that satisfy a standard-library interface (String, Error, Len,
// ServeHTTP, ...) are called from outside the module and are skipped, and
// so are struct fields.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		pkg, name string // pkg is the declaring package's import path
		method    bool
		pos       string
	}
	var decls []decl
	used := map[string]bool{}               // "import/path.Name", from non-test files and other packages' tests
	methods := map[string]map[string]bool{} // selector name → "" (a non-test file) or the test's package
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		self := "repro/" + filepath.ToSlash(filepath.Dir(path))
		test := strings.HasSuffix(path, "_test.go")
		imports := map[string]string{} // local name → import path
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ip
		}
		declared := map[*ast.Ident]bool{}
		if !test && strings.HasPrefix(self, "repro/internal/") {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declared[d.Name] = true
					if d.Name.IsExported() && !(d.Recv != nil && stdlibMethods[d.Name.Name]) {
						decls = append(decls, decl{self, d.Name.Name, d.Recv != nil, fset.Position(d.Pos()).String()})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							declared[id] = true
							if id.IsExported() {
								decls = append(decls, decl{self, id.Name, false, fset.Position(id.Pos()).String()})
							}
						}
					}
				}
			}
		}
		by := ""
		if test {
			by = self
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if methods[n.Sel.Name] == nil {
					methods[n.Sel.Name] = map[string]bool{}
				}
				methods[n.Sel.Name][by] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok && ip != self {
						used[ip+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !test && !declared[n] {
					used[self+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		ok := used[d.pkg+"."+d.name]
		for by := range methods[d.name] {
			ok = ok || d.method && by != d.pkg
		}
		if !ok {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported from internal/, but only its own package's tests use it", d)
	}
}

// stdlibMethods are the method names through which the standard library
// calls a type: fmt, errors, sort, container/heap, io and net/http.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}
